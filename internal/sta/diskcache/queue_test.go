package diskcache

import (
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
		q := NewWriteQueue(8, func(int) { sunk.Add(1) })
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
