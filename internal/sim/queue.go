package sim

// Queue is a FIFO of small values for simulation elements that retire
// entries strictly in arrival order (a link's departures, a sender's
// unacknowledged segments). It is one slice and a head index: Push appends,
// Pop advances the head, and the storage is kept across Reset, so a pooled
// element reaches a steady state where queueing allocates nothing. The zero
// Queue is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest value. It panics on an empty queue.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Pop discards the oldest value. It panics on an empty queue.
func (q *Queue[T]) Pop() {
	if q.head >= len(q.buf) {
		panic("sim: Pop on empty Queue")
	}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Push appends v. A queue that never drains (a saturated link) would
// otherwise grow by every value ever pushed: once the storage is full and at
// least half of it is popped space, the live values slide down instead, which
// keeps capacity within twice the peak length at amortized constant cost.
func (q *Queue[T]) Push(v T) {
	switch {
	case q.buf == nil:
		// Start where a 32-frame droptail queue or a 64 KiB window of
		// segments fits, skipping append's first six reallocations.
		q.buf = make([]T, 0, 64)
	case len(q.buf) == cap(q.buf) && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Reset empties the queue, keeping its storage.
func (q *Queue[T]) Reset() { q.buf, q.head = q.buf[:0], 0 }
