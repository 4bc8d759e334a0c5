package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// NewLogger is the daemons' -log-json choice: JSON lines or logfmt on
// stderr.
func NewLogger(jsonLines bool) *slog.Logger {
	if jsonLines {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// Fatal logs msg at error level and exits 1.
func Fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// ListenAndDrain is the body both daemons' main share: serve srv on
// addr until SIGINT/SIGTERM, then stop admitting, give live jobs up to
// drain (Server.Shutdown), and close the listener. after, when non-nil,
// runs once the drain is over and before the final log line (delrepd
// writes its heap profile there), with srv and its job table still
// reachable. A listen failure is fatal.
func ListenAndDrain(logger *slog.Logger, addr string, drain time.Duration, srv *Server, after func()) {
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", drain.String())
	case err := <-errCh:
		Fatal(logger, "listening failed", "addr", addr, "error", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.WarnContext(ctx, "drain deadline passed: live jobs cancelled", "error", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.WarnContext(ctx, "http shutdown", "error", err)
	}
	if after != nil {
		after()
	}
	runtime.KeepAlive(srv) // the heap after() sees includes the drained job table
	logger.InfoContext(ctx, "stopped")
}
