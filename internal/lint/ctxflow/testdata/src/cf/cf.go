// Package cf exercises the ctxflow analyzer: discarded in-scope
// contexts and context-less call variants.
package cf

import (
	"context"
	"net/http"
	"time"
)

// fetch: Background discarded while the ctx parameter is in scope.
func fetch(ctx context.Context, d time.Duration) error {
	sub, cancel := context.WithTimeout(context.Background(), d) // want `context.Background\(\) discards the in-scope context ctx`
	defer cancel()
	return work(sub)
}

// root: no earlier context — the one sanctioned Background.
func root(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return work(ctx)
}

// laterLocal: the drain-deadline bug shape — a context created a few
// statements earlier, then ignored.
func laterLocal(d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_ = work(ctx)
	keep(context.Background()) // want `context.Background\(\) discards the in-scope context ctx`
}

// handler: r.Context() carries the client disconnect.
func handler(w http.ResponseWriter, r *http.Request) {
	_ = work(context.Background()) // want `context.Background\(\) discards the in-scope context r.Context\(\)`
	// As the receiver of a method call.
	_ = context.Background().Err() // want `context.Background\(\) discards the in-scope context r.Context\(\)`
}

// stdlibPair: the request should observe cancellation.
func stdlibPair(ctx context.Context, url string) {
	resp, _ := http.Get(url) // want `net/http.Get ignores the in-scope context ctx`
	if resp != nil {
		resp.Body.Close()
	}
}

// headerGet: http.Header.Get is a method — it must not be confused
// with the package-level http.Get stdlib pair.
func headerGet(ctx context.Context, h http.Header) string {
	return h.Get("X-Key")
}

// query has a context-aware sibling; with a context in scope the
// ctx-less form drops cancellation.
func query(id int) int { return id }

func queryCtx(ctx context.Context, id int) int {
	_ = ctx
	return id
}

func useSibling(ctx context.Context, id int) int {
	return query(id) // want `query has a context-aware variant queryCtx`
}

// noCtxCaller: without a context in scope there is nothing to pass.
func noCtxCaller(id int) int { return query(id) }

// alreadyCtx: calling the context variant is the fixed form.
func alreadyCtx(ctx context.Context, id int) int { return queryCtx(ctx, id) }

// Store has a method pair.
type Store struct{}

func (s *Store) Get(k string) string { return k }

func (s *Store) GetCtx(ctx context.Context, k string) string {
	_ = ctx
	return k
}

func method(ctx context.Context, s *Store) string {
	return s.Get("k") // want `Get has a context-aware variant GetCtx`
}

// suppressed: deliberate pinning, acknowledged in place.
func suppressed(ctx context.Context) context.Context {
	//simlint:ignore ctxflow fixture exception: the value must outlive the request
	return context.WithValue(context.Background(), ctxKey{}, 1)
}

type ctxKey struct{}

func work(ctx context.Context) error {
	_ = ctx
	return nil
}

func keep(ctx context.Context) { _ = ctx }
