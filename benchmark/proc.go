package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark leaves behind lives,
// relative to the repo root; the root .gitignore names it.
const buildDir = ".bench_build"

// binaries are the four programs under test, built from ./cmd.
var binaries = []string{"expdriver", "delrepsim", "delrepd", "delrepfleet"}

// env owns one run's on-disk and process state: the repo root, the
// built binaries, one temp root holding cache dirs and daemon logs, and
// every child process. close stops the children and removes the temp
// root; it is safe to call more than once and from the signal handler.
type env struct {
	root string // repo root (holds go.mod of module delrep)
	bin  string // <root>/.bench_build/bin: the four binaries
	tmp  string // <root>/.bench_build/tmp/run-*: removed on close

	mu     sync.Mutex
	procs  []*proc
	closed bool
}

// findRoot walks up from the working directory to the delrep module
// root, so the benchmark runs from the root (run.sh) or from its own
// directory (go run . / go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module delrep\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the delrep repository (no go.mod of module delrep above the working directory)")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: filepath.Join(root, buildDir, "bin")}
	tmpParent := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	procs := e.procs
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	os.RemoveAll(e.tmp)
}

// build compiles the four binaries into e.bin. The first build of a
// checkout compiles everything; later ones are up-to-date checks.
func (e *env) build() error {
	args := []string{"build", "-o", e.bin + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = e.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// mkdir creates a fresh directory under the temp root.
func (e *env) mkdir(pattern string) (string, error) {
	return os.MkdirTemp(e.tmp, pattern+"-")
}

// freePort finds a free TCP port by binding 127.0.0.1:0 and releasing it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one child process whose stderr goes to a file in the temp
// root; the tail is printed only when something fails.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string // base URL for daemons
	errPath string
	errFile *os.File
	exited  chan struct{} // closed once the process has been waited for

	stopOnce sync.Once
}

// command prepares (without starting) one of the built binaries.
func (e *env) command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, bin), args...)
	cmd.Dir = e.tmp
	// If this process dies without running close (a panic on another
	// goroutine, SIGKILL), the kernel still takes the child down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startDaemon launches a daemon binary on a free loopback port and
// waits until GET /readyz answers 200.
func (e *env) startDaemon(name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &proc{name: name, url: "http://" + addr, errPath: filepath.Join(e.tmp, name+".stderr")}
	if p.errFile, err = os.Create(p.errPath); err != nil {
		return nil, err
	}
	p.cmd = e.command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = p.errFile
	if err = p.cmd.Start(); err != nil {
		p.errFile.Close()
		return nil, fmt.Errorf("starting %s: %v", name, err)
	}
	p.exited = make(chan struct{})
	go func() { p.cmd.Wait(); close(p.exited) }()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	if err := p.waitReady(15 * time.Second); err != nil {
		return nil, fmt.Errorf("%v\n--- %s stderr (tail) ---\n%s", err, name, p.stderrTail())
	}
	return p, nil
}

func (p *proc) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before becoming ready", p.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not become ready within %v (last error: %v)", p.name, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 3 s) and
// waits until it has ended.
func (p *proc) stop() {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(3 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
		p.errFile.Close()
	})
}

// tail returns the last n lines of b.
func tail(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func (p *proc) stderrTail() string {
	b, err := os.ReadFile(p.errPath)
	if err != nil {
		return ""
	}
	return tail(b, 20)
}

// --- resource accounting (Linux /proc) -----------------------------------

// clkTck is the kernel's USER_HZ; 100 on every Linux the toolchain
// image targets.
const clkTck = 100

// procCPU returns user+sys CPU time of a live process.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clkTck
}

// procStatusKB reads one "VmXXX: n kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}

func (p *proc) cpu() time.Duration { return procCPU(p.cmd.Process.Pid) }
func (p *proc) rssKB() float64     { return procStatusKB(p.cmd.Process.Pid, "VmRSS") }
func (p *proc) peakRSSMB() float64 { return procStatusKB(p.cmd.Process.Pid, "VmHWM") / 1024 }

// selfCPU returns user+sys CPU of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func selfPeakRSSMB() float64 { return procStatusKB(os.Getpid(), "VmHWM") / 1024 }

// cpuMeter sums CPU over this process and a set of live children.
type cpuMeter struct {
	procs []*proc
	start time.Duration
}

func startCPU(procs ...*proc) *cpuMeter {
	m := &cpuMeter{procs: procs}
	m.start = m.now()
	return m
}

func (m *cpuMeter) now() time.Duration {
	t := selfCPU()
	for _, p := range m.procs {
		t += p.cpu()
	}
	return t
}

func (m *cpuMeter) seconds() float64 { return (m.now() - m.start).Seconds() }
