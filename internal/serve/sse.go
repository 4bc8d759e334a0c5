package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// sseEvent is one server-sent event: a named payload pushed to a
// subscribed client.
type sseEvent struct {
	name string
	data any
}

// notifyLocked pushes the job's current view to every subscriber.
// Server.mu must be held. Sends never block: a subscriber that has
// fallen behind misses intermediate transitions but always receives
// the terminal one via its own doneCh wait.
func (s *Server) notifyLocked(j *Job) {
	if len(j.subs) == 0 {
		return
	}
	ev := sseEvent{name: "status", data: j.viewLocked()}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an event channel on the live part of the row's
// job and returns that part; the returned func removes the channel. A
// terminal job has no live part and nothing to subscribe to: j and ch
// are nil and unsub does nothing.
func (s *Server) subscribe(row *jobRow) (j *Job, ch chan sseEvent, unsub func()) {
	s.mu.Lock()
	if j = row.live; j == nil {
		s.mu.Unlock()
		return nil, nil, func() {}
	}
	// Room for every transition a job can make plus failover repeats;
	// an overflowing subscriber is caught up by the terminal event.
	ch = make(chan sseEvent, 8)
	if j.subs == nil {
		j.subs = map[chan sseEvent]struct{}{}
	}
	j.subs[ch] = struct{}{}
	s.sseSubs++
	s.mu.Unlock()
	return j, ch, func() {
		s.mu.Lock()
		delete(j.subs, ch)
		s.sseSubs--
		s.mu.Unlock()
	}
}

// terminal reports whether the event is a terminal status event, the
// one that ends a stream.
func (ev sseEvent) terminal() bool {
	view, ok := ev.data.(JobView)
	return ok && view.Status.Terminal()
}

func writeSSE(w http.ResponseWriter, f http.Flusher, ev sseEvent) error {
	b, err := json.Marshal(ev.data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, b); err != nil {
		return err
	}
	f.Flush()
	return nil
}

// handleEvents streams a job's lifecycle as server-sent events: a
// "status" event on subscription and at every transition, "progress"
// events at the configured interval while the job runs and has a
// progress source, and a final "status" event carrying the terminal
// view (including the result for completed jobs), after which the
// stream ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	row, id := s.lookup(w, r)
	if row == nil {
		return
	}
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(ev sseEvent) (done bool) {
		return writeSSE(w, f, ev) != nil || ev.terminal()
	}
	j, ch, unsub := s.subscribe(row)
	defer unsub()
	if emit(sseEvent{name: "status", data: s.view(row, id)}) {
		return // a job without a live part (j == nil) is terminal: it ends here
	}

	ticker := time.NewTicker(s.progressEvery)
	defer ticker.Stop()
	for {
		select {
		case ev := <-ch:
			if emit(ev) {
				return
			}
		case <-ticker.C:
			s.mu.Lock()
			var pv *ProgressView
			if row.status == StatusRunning && j.progress != nil {
				done, total := j.progress()
				pv = &ProgressView{CyclesDone: done, CyclesTotal: total}
			}
			s.mu.Unlock()
			if pv != nil && emit(sseEvent{name: "progress", data: pv}) {
				return
			}
		case <-j.doneCh:
			// Drain any buffered transition first so event order holds,
			// then emit the terminal view.
			for {
				select {
				case ev := <-ch:
					if emit(ev) {
						return
					}
					continue
				default:
				}
				break
			}
			emit(sseEvent{name: "status", data: s.view(row, id)})
			return
		case <-r.Context().Done():
			return
		}
	}
}
