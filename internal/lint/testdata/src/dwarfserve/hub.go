// Package dwarfserve is a locksend fixture named to fall inside the
// analyzer's default scope: blocking sends and subscriber callbacks
// under a held mutex flag, inside closures, goroutine bodies and
// deferred literals too; copy-then-send, select-with-default, and a
// goroutine body's send under the launcher's lock do not.
package dwarfserve

import "sync"

type hub struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	subs []chan int
	cbs  []func(int)
	last int
}

func (h *hub) badSend(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		ch <- v // want `channel send while holding h\.mu`
	}
}

func (h *hub) badCallback(v int) {
	h.mu.Lock()
	for _, cb := range h.cbs {
		cb(v) // want `callback cb invoked while holding h\.mu`
	}
	h.mu.Unlock()
}

func (h *hub) rlockSend(v int) {
	h.rw.RLock()
	defer h.rw.RUnlock()
	h.subs[0] <- v // want `channel send while holding h\.rw`
}

func (h *hub) blockingSelect(v int, stop chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.subs[0] <- v: // want `channel send while holding h\.mu`
	case <-stop:
	}
}

func (h *hub) closureSend(v int) {
	send := func(x int) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.subs[0] <- x // want `channel send while holding h\.mu`
	}
	send(v)
}

func (h *hub) declaredClosureSend(v int) {
	var send = func(x int) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.subs[0] <- x // want `channel send while holding h\.mu`
	}
	send(v)
}

func (h *hub) goroutineLocksAndSends(v int) {
	go func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.subs[0] <- v // want `channel send while holding h\.mu`
	}()
}

func (h *hub) deferredLocksAndSends(v int) {
	defer func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.subs[0] <- v // want `channel send while holding h\.mu`
	}()
}

func (h *hub) goodCopyThenSend(v int) {
	h.mu.Lock()
	subs := append([]chan int(nil), h.subs...)
	h.last = v
	h.mu.Unlock()
	for _, ch := range subs {
		ch <- v // ok: lock released before the send
	}
}

func (h *hub) goodSelectDefault(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- v: // ok: default makes the send non-blocking
		default:
		}
	}
}

func (h *hub) goodGoroutine(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		ch := ch
		go func() {
			ch <- v // ok: runs concurrently, not while this path holds the lock
		}()
	}
}

func (h *hub) goodNamedCalls(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.record(v)  // ok: methods are assumed lock-aware
	normalize(v) // ok: named package functions too
}

func (h *hub) allowedHandoff(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	//lint:allow locksend ring buffer sized >= subscriber count, cannot block
	h.subs[0] <- v
}

func (h *hub) record(v int) { h.last = v }

func normalize(v int) int { return v }
