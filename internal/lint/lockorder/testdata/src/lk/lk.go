// Package lk exercises the lockorder analyzer: blocking operations
// under held mutexes, double-locking, and acquisition-order inversion.
package lk

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

type Server struct {
	mu      sync.Mutex
	pruneMu sync.Mutex
	rw      sync.RWMutex
	cond    *sync.Cond
	ch      chan int
	buf     strings.Builder
	out     io.Writer
}

// sendUnderLock: a channel send while holding s.mu blocks every other
// goroutine behind a slow consumer.
func (s *Server) sendUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v // want `channel send while \(Server\).mu is held`
}

// sendAfterUnlock: the same send after release is fine.
func (s *Server) sendAfterUnlock(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

// nonBlockingSend: a select with a default case never blocks.
func (s *Server) nonBlockingSend(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- v:
	default:
	}
}

// blockingSelect: without a default, the select parks under the lock.
func (s *Server) blockingSelect() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while \(Server\).mu is held`
	case v := <-s.ch:
		return v
	case <-time.After(time.Second):
		return 0
	}
}

// waitUnderLock: WaitGroup.Wait under a lock is a deadlock waiting for
// a worker that needs the lock.
func (s *Server) waitUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want `sync.WaitGroup.Wait while \(Server\).mu is held`
}

// sleepUnderLock.
func (s *Server) sleepUnderLock() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while \(Server\).rw is held`
}

// writeInterfaceUnderLock: s.out may be a network connection.
func (s *Server) writeInterfaceUnderLock(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	io.WriteString(s.out, line)    // want `io.WriteString to an interface writer while \(Server\).mu is held`
	fmt.Fprintf(s.out, "%s", line) // want `fmt.Fprintf to an interface writer while \(Server\).mu is held`
	s.out.Write([]byte(line))      // want `interface-writer Write while \(Server\).mu is held`
}

// writeBufferUnderLock: a concrete in-memory builder cannot block.
func (s *Server) writeBufferUnderLock(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.WriteString(line)
	fmt.Fprintf(&s.buf, "%s", line)
}

// doubleLock: locking a mutex already held self-deadlocks.
func (s *Server) doubleLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want `\(Server\).mu locked while already held`
}

// condWait releases the lock while parked; it is the one sanctioned
// way to block with a mutex held.
func (s *Server) condWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ch) == 0 {
		s.cond.Wait()
	}
}

// earlyReturn: an unlock on a branch does not release the fall-through
// path, and the analyzer must not think it does.
func (s *Server) earlyReturn(fail bool, v int) {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return
	}
	s.ch <- v // want `channel send while \(Server\).mu is held`
	s.mu.Unlock()
}

// goroutineScope: a function literal has its own lock scope; the
// send inside the spawned goroutine runs without the lock.
func (s *Server) goroutineScope(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- v
	}()
}

// lockAB and lockBA acquire the same pair in opposite orders.
func (s *Server) lockAB() {
	s.mu.Lock()
	s.pruneMu.Lock() // want `\(Server\).pruneMu acquired while \(Server\).mu is held here \(in lockAB\), but lockBA reverses the order`
	s.pruneMu.Unlock()
	s.mu.Unlock()
}

func (s *Server) lockBA() {
	s.pruneMu.Lock()
	s.mu.Lock() // want `\(Server\).mu acquired while \(Server\).pruneMu is held here \(in lockBA\), but lockAB reverses the order`
	s.mu.Unlock()
	s.pruneMu.Unlock()
}

// suppressed: an acknowledged blocking send stays quiet.
func (s *Server) suppressed(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//simlint:ignore lockorder fixture exception: bounded buffer, send cannot block
	s.ch <- v
}

// pkgHandler: a package-level function literal is checked like a
// declared function.
var pkgMu sync.Mutex

var pkgHandler = func(ch chan int) {
	pkgMu.Lock()
	defer pkgMu.Unlock()
	ch <- 1 // want `channel send while lk.pkgMu is held`
}

// rangeChan: ranging over a channel receives from it on every
// iteration.
func (s *Server) rangeChan() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want `channel receive while \(Server\).mu is held`
		_ = v
	}
}

// assertRecv: a receive inside a type assertion still blocks.
func (s *Server) assertRecv(c chan any) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return (<-c).(int) // want `channel receive while \(Server\).mu is held`
}

// sliceRecv: a receive in a slice bound still blocks.
func (s *Server) sliceRecv(b []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return b[<-s.ch:] // want `channel receive while \(Server\).mu is held`
}

// caseRecv: a switch case expression is evaluated under the lock.
func (s *Server) caseRecv() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case <-s.ch == 1: // want `channel receive while \(Server\).mu is held`
	}
}

// goArgRecv: a go statement evaluates its arguments before it
// spawns, so the receive runs under the lock.
func (s *Server) goArgRecv(f func(int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go f(<-s.ch) // want `channel receive while \(Server\).mu is held`
}

// goWait: the spawned goroutine waits, not the lock holder.
func (s *Server) goWait(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go wg.Wait()
}

// commOperandRecv: a select evaluates a send's value on entry, so the
// receive producing it blocks under the lock despite the default case.
func (s *Server) commOperandRecv(other chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- <-other: // want `channel receive while \(Server\).mu is held`
	default:
	}
}

// commRecv: the receive is the communication itself, which a default
// case keeps from blocking.
func (s *Server) commRecv() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}
