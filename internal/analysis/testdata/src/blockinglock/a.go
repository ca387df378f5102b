// Fixture for the blockinglock analyzer: channel ops, sleeps, waits,
// net I/O, and timed disk access must not be reachable while a mutex
// is visibly held.
package a

import (
	"io"
	"net"
	"sync"
	"time"

	"mmfs/internal/disk"
)

var (
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	ch chan int
)

func badSendHeld() {
	mu.Lock()
	ch <- 1 // want `channel send while holding mu`
	mu.Unlock()
}

func okSendAfterUnlock() {
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

func badSleepDeferred() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding mu`
}

func badRecvReadLocked() {
	rw.RLock()
	defer rw.RUnlock()
	<-ch // want `channel receive while holding rw`
}

func badWaitHeld() {
	mu.Lock()
	defer mu.Unlock()
	wg.Wait() // want `sync.WaitGroup.Wait while holding mu`
}

func blocksViaChannel() int { return <-ch }

func badPropagated() {
	mu.Lock()
	defer mu.Unlock()
	blocksViaChannel() // want `call to blocksViaChannel, which may block \(channel receive\) while holding mu`
}

func badDeviceHeld(d disk.Device, m *sync.Mutex, buf []byte) {
	m.Lock()
	defer m.Unlock()
	_, _, _ = d.ReadView(0, 0, 1, buf) // want `timed disk access ReadView while holding m`
	_, _ = d.ReadInto(0, 0, 1, buf)    // want `timed disk access ReadInto while holding m`
	_, _ = d.Write(0, 0, buf)          // want `timed disk access Write while holding m`
}

func badNetArgHeld(conn net.Conn, buf []byte) {
	mu.Lock()
	defer mu.Unlock()
	_, _ = io.ReadFull(conn, buf) // want `net I/O via io.ReadFull while holding mu`
}

func okSelectDefaultHeld() {
	mu.Lock()
	defer mu.Unlock()
	select {
	case <-ch: // the receive op itself is inside a non-blocking select clause
	default:
	}
}

func okGoroutineDoesNotInheritLock() {
	mu.Lock()
	defer mu.Unlock()
	go func() {
		<-ch
	}()
}

func okNoLock(conn net.Conn, buf []byte) {
	_, _ = io.ReadFull(conn, buf)
	wg.Wait()
}

func suppressed() {
	mu.Lock()
	defer mu.Unlock()
	//lint:ignore blockinglock fixture proves the escape hatch
	time.Sleep(time.Millisecond)
}
