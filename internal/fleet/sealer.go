package fleet

import (
	"sync"
	"time"
)

// Sealer is the wall-clock half of the ledger's size-or-deadline batch
// sealing. The ledger itself seals deterministically on size and on simulated-time
// span; the Sealer adds a real-time liveness bound so a quiet engine
// (no frames arriving) still publishes its open batch within ~interval
// of wall time.
//
// It is deliberately decoupled from the ledger type: it just invokes
// flush on a tick (the engine passes the ledger's SealOpen), so it can
// drive any flush-shaped deadline.
type Sealer struct {
	flush func()
	tick  *time.Ticker
	stop  chan struct{}
	done  chan struct{}

	once sync.Once
	join func()
}

// NewSealer starts the sealing goroutine, invoking flush every
// interval until Close. interval <= 0 selects 50ms. flush must be safe
// to call concurrently with the owner's own flushes (ledger.SealOpen
// is).
func NewSealer(flush func(), interval time.Duration) *Sealer {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	s := &Sealer{
		flush: flush,
		tick:  time.NewTicker(interval),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.loop()
	// Join evidence for the spawn above: Close stops the ticker loop,
	// waits for it to exit, then runs one final flush so the tail open
	// batch is sealed by shutdown.
	s.join = func() {
		close(s.stop)
		<-s.done
		s.tick.Stop()
		s.flush()
	}
	return s
}

func (s *Sealer) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.tick.C:
			s.flush()
		}
	}
}

// Close joins the sealing goroutine and performs a final flush.
// Idempotent.
func (s *Sealer) Close() { s.once.Do(s.join) }
