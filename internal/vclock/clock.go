// Package vclock provides the time substrate for the CA-action runtime: an
// abstract Clock with two implementations, a real clock backed by package
// time and a deterministic virtual clock implementing a conservative
// discrete-event scheduler over goroutines.
//
// Every blocking operation in this repository (message receipt, modelled
// computation, barrier waits) goes through a Clock or a Queue created by it.
// Under the virtual clock this makes entire distributed executions
// deterministic and allows simulating multi-minute experiments in
// microseconds; it also gives precise global-deadlock detection, which the
// paper's Lemma 1 (deadlock freedom) tests rely on.
package vclock

import "time"

// Clock abstracts the passage of time for a simulated or real distributed
// system. Implementations must be safe for concurrent use.
type Clock interface {
	// Now reports the elapsed time since the clock started.
	Now() time.Duration

	// Sleep blocks the calling goroutine for d. The calling goroutine must
	// have been started via Go (or registered with Adopt) when using the
	// virtual clock.
	Sleep(d time.Duration)

	// Go runs fn on a new goroutine tracked by the clock. Tracked goroutines
	// participate in virtual-time advancement: virtual time moves only when
	// all tracked goroutines are blocked in clock-mediated waits.
	Go(fn func())

	// NewQueue returns an unbounded FIFO queue integrated with the clock:
	// Get blocks in a clock-mediated wait, and PutAfter delivers after a
	// delay in this clock's timeline.
	NewQueue() *Queue

	// Wait blocks until every goroutine started with Go has returned.
	Wait()

	// Hold calls setup, which starts goroutines with Go. Under the virtual
	// clock the goroutines setup starts begin only once it has returned,
	// so none can advance time, block or send before its peers exist.
	// setup must not block in a clock wait.
	Hold(setup func())

	// Run is Hold followed by Wait: the way to start a simulation from an
	// untracked goroutine and see it finish.
	Run(setup func())
}

// IsReal reports whether c is wall-clock-backed (see Real.RealTime).
// Components that keep timing invariants only the real clock provides —
// the transports' lock-free fast paths, the mux's run-to-completion
// delivery lane — gate on this, so deterministic virtual-time executions
// never take a schedule-dependent shortcut.
func IsReal(c Clock) bool {
	_, ok := c.(interface{ RealTime() })
	return ok
}

// Queue is an unbounded FIFO mailbox whose blocking receive cooperates with
// the owning Clock. The zero value is not usable; create queues with
// Clock.NewQueue.
type Queue struct {
	impl queueImpl
}

type queueImpl interface {
	put(x any) bool
	putAfter(d time.Duration, x any)
	get() (any, bool)
	getTimeout(d time.Duration) (any, bool)
	tryGet() (any, bool)
	closeQ()
	length() int
	setDaemon()
	reset()
}

// Put appends x to the queue, waking one blocked receiver. A closed queue
// drops new arrivals silently; callers that must know use PutOpen.
func (q *Queue) Put(x any) { q.impl.put(x) }

// PutOpen is Put reporting acceptance: false means the queue was already
// closed and x was dropped (receivers can never observe it). Senders that
// hand off responsibility with the element — e.g. a work item whose
// completion someone awaits — must check it and dispose of x themselves on
// false.
func (q *Queue) PutOpen(x any) bool { return q.impl.put(x) }

// PutAfter appends x to the queue once d has elapsed on the owning clock.
// It returns immediately.
func (q *Queue) PutAfter(d time.Duration, x any) { q.impl.putAfter(d, x) }

// Get blocks until an element is available or the queue is closed and
// drained. The boolean is false when the queue was closed and empty.
func (q *Queue) Get() (any, bool) { return q.impl.get() }

// GetTimeout behaves like Get but gives up after d, returning false.
// A false result therefore means "closed and drained" or "timed out".
func (q *Queue) GetTimeout(d time.Duration) (any, bool) { return q.impl.getTimeout(d) }

// TryGet removes and returns the head element without blocking.
func (q *Queue) TryGet() (any, bool) { return q.impl.tryGet() }

// Close marks the queue closed. Pending elements remain receivable; blocked
// and future receivers observe ok=false once the queue drains.
func (q *Queue) Close() { q.impl.closeQ() }

// SetDaemon marks receives on this queue as daemon waits: goroutines parked
// in them are infrastructure (demultiplexer pumps, background routers), so
// under the virtual clock they are excluded from deadlock detection — a
// system whose only parked goroutines are daemons is considered idle, not
// deadlocked. No-op on a real clock's queue.
func (q *Queue) SetDaemon() { q.impl.setDaemon() }

// Reset reopens a closed, drained queue for reuse, clearing the daemon
// mark and keeping the backing array. Pooling support (recycled mailboxes
// must come back indistinguishable from fresh ones): it may only be called
// by the queue's exclusive owner once no other goroutine can touch the
// queue — a receiver racing a Reset could otherwise consume the next
// incarnation's elements.
func (q *Queue) Reset() { q.impl.reset() }

// Len reports the number of buffered elements.
func (q *Queue) Len() int { return q.impl.length() }
