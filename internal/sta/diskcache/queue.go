package diskcache

import "sync"

// WriteQueue is the write-behind queue of the disk tier and the remote tier
// (internal/sta/remotecache): Enqueue never blocks, one goroutine hands the
// sink everything buffered at once — one batch, in FIFO order, of at most
// the queue's capacity — Flush is a barrier behind everything enqueued
// before it, and Close drains what is queued and stops the goroutine. An
// item Enqueue accepts is always handed to the sink; one it refuses (full
// queue, or Close has begun) is the caller's to count as a drop. All methods
// are safe for concurrent use, Close included.
type WriteQueue[T any] struct {
	ch     chan queued[T]
	sink   func([]T)
	batch  []T           // the drain goroutine's reused batch buffer
	stop   chan struct{} // closed once, by Close
	exited chan struct{} // closed by the drain goroutine on return
	once   sync.Once

	// mu orders Enqueue against Close: an accepted item's send happens
	// before closed is set, so the final drain after stop always sees it.
	mu     sync.RWMutex
	closed bool
}

// queued is one queue slot: a data item, or a Flush barrier (ack != nil)
// that carries no data.
type queued[T any] struct {
	v   T
	ack chan struct{}
}

// NewWriteQueue starts a queue of capacity n whose goroutine passes every
// accepted item to sink, in batches of what is buffered. The sink must not
// retain its slice. The caller must Close it.
func NewWriteQueue[T any](n int, sink func([]T)) *WriteQueue[T] {
	q := &WriteQueue[T]{
		ch:     make(chan queued[T], n),
		sink:   sink,
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go q.drain()
	return q
}

// Enqueue queues v without blocking. It reports false when the queue is full
// or closed; the item is then dropped.
func (q *WriteQueue[T]) Enqueue(v T) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- queued[T]{v: v}:
		return true
	default:
		return false
	}
}

// Flush blocks until every item enqueued before the call has been handed to
// the sink. After Close it returns at once: Close has drained the queue.
func (q *WriteQueue[T]) Flush() {
	ack := make(chan struct{})
	select {
	case q.ch <- queued[T]{ack: ack}:
	case <-q.stop:
		return
	}
	// A barrier that lands after the final drain is never acknowledged;
	// the drain goroutine's exit releases it instead.
	select {
	case <-ack:
	case <-q.exited:
	}
}

// Close refuses further items, hands every queued one to the sink and
// returns once the goroutine has exited.
func (q *WriteQueue[T]) Close() {
	q.once.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		close(q.stop)
	})
	<-q.exited
}

func (q *WriteQueue[T]) drain() {
	defer close(q.exited)
	for {
		select {
		case it := <-q.ch:
			q.run(it)
		case <-q.stop:
			// Enqueue accepts nothing now, and this goroutine is the only
			// receiver, so what is buffered is all that is left.
			for len(q.ch) > 0 {
				q.run(<-q.ch)
			}
			return
		}
	}
}

// run collects first and whatever else is buffered behind it into one batch
// for the sink. A barrier first sinks the batch gathered ahead of it, so
// Flush's guarantee holds; the batch stops at the queue's capacity, so one
// sink call stays bounded under a steady stream of puts.
func (q *WriteQueue[T]) run(first queued[T]) {
	it := first
	for {
		if it.ack != nil {
			q.sinkBatch()
			close(it.ack)
		} else {
			q.batch = append(q.batch, it.v)
		}
		if len(q.ch) == 0 || len(q.batch) >= cap(q.ch) {
			break
		}
		it = <-q.ch
	}
	q.sinkBatch()
}

func (q *WriteQueue[T]) sinkBatch() {
	if len(q.batch) == 0 {
		return
	}
	q.sink(q.batch)
	clear(q.batch) // the items may hold buffers; don't pin them
	q.batch = q.batch[:0]
}
