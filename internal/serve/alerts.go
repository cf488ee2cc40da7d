package serve

import (
	"sync"
	"sync/atomic"
)

// hub fans finished NDJSON alert lines out to /alerts subscribers.
// Publishers never block: a subscriber that falls behind its buffer
// has lines dropped (and counted in dropped), because a stalled curl
// must not backpressure the ingestion path.
type hub struct {
	mu      sync.Mutex
	subs    map[chan []byte]struct{}
	closed  bool
	dropped atomic.Int64
}

func newHub() *hub {
	return &hub{subs: map[chan []byte]struct{}{}}
}

// subscribe registers a new consumer. The returned cancel func must be
// called when the consumer goes away.
func (h *hub) subscribe(buffer int) (<-chan []byte, func()) {
	ch := make(chan []byte, buffer)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// publish delivers one line to every subscriber. line must not be
// mutated afterwards (callers hand over a fresh copy).
func (h *hub) publish(line []byte) {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- line:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}
