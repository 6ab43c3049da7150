package diskcache

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWriteQueueAcceptedIsSunk races producers against Close: every item
// Enqueue accepted must reach the sink exactly once, whichever side wins,
// and Flush after Close must return.
func TestWriteQueueAcceptedIsSunk(t *testing.T) {
	for round := 0; round < 50; round++ {
		var sunk, accepted atomic.Int64
		q := NewWriteQueue(8, func(b []int) { sunk.Add(int64(len(b))) })
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					if q.Enqueue(i) {
						accepted.Add(1)
					}
					if i%50 == 0 {
						q.Flush()
					}
				}
			}()
		}
		close(start)
		q.Close()
		wg.Wait()
		q.Flush()
		if a, s := accepted.Load(), sunk.Load(); a != s {
			t.Fatalf("round %d: %d items accepted, %d reached the sink", round, a, s)
		}
	}
}

// TestWriteQueueCoalesces: the sink gets everything buffered at once. While
// it is busy with the first item, later ones queue up; they then arrive as
// one batch, in FIFO order, and a Flush barrier behind them returns only
// after that batch was sunk.
func TestWriteQueueCoalesces(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var batches [][]int
	q := NewWriteQueue(8, func(b []int) {
		if len(batches) == 0 {
			close(entered)
			<-release
		}
		batches = append(batches, append([]int(nil), b...))
	})
	defer q.Close()
	q.Enqueue(0)
	<-entered
	for i := 1; i <= 5; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	close(release)
	q.Flush()
	if want := [][]int{{0}, {1, 2, 3, 4, 5}}; !reflect.DeepEqual(batches, want) {
		t.Fatalf("sink batches %v, want %v", batches, want)
	}
}
