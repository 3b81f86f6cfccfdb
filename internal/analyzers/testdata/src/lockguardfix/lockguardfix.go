// Package lockguardfix is the positive/negative/suppression fixture for
// the lockguard pass: the bare spec ("guarded by mu", lock on the same
// struct), the dotted spec ("guarded by s.mu", lock on a named outer
// struct), both caller-holds conventions, construction exemption, the
// function-literal fresh-context rule, joins after branches, switches,
// selects and a releasing break, and a read in a switch case
// expression.
package lockguardfix

import "sync"

type counterSet struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counterSet) Good() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counterSet) GoodDefer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counterSet) Bad() {
	c.n++ // want "c.n is guarded by c.mu, which Bad does not hold on this path"
}

// BranchLeak locks inside a conditional: the lock state must not survive
// the join.
func (c *counterSet) BranchLeak(grow bool) {
	if grow {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n++ // want "c.n is guarded by c.mu, which BranchLeak does not hold"
}

// CondDefer is the conditional-defer-unlock shape: the early branch
// releases and returns, so the lock is still held at the join on every
// path that reaches it. A negative only because the join is
// termination-aware.
func (c *counterSet) CondDefer(ok bool) {
	c.mu.Lock()
	if !ok {
		c.mu.Unlock()
		return
	}
	defer c.mu.Unlock()
	c.n++
}

// BothBranchesLock acquires on every branch: the intersection join
// carries the lock past the if.
func (c *counterSet) BothBranchesLock(fast bool) {
	if fast {
		c.mu.Lock()
	} else {
		c.mu.Lock()
		c.n = 0
	}
	c.n++
	c.mu.Unlock()
}

// SwitchLock acquires in every arm of a defaulted switch: held after.
func (c *counterSet) SwitchLock(mode int) {
	switch mode {
	case 0:
		c.mu.Lock()
	default:
		c.mu.Lock()
		c.n = mode
	}
	c.n++
	c.mu.Unlock()
}

// CondRelease unlocks on one branch and falls through: the join must
// drop the lock even though the entry path still holds it.
func (c *counterSet) CondRelease(bail bool) {
	c.mu.Lock()
	if bail {
		c.mu.Unlock()
	}
	c.n++ // want "c.n is guarded by c.mu, which CondRelease does not hold"
	if !bail {
		c.mu.Unlock()
	}
}

// SelectRelease releases in one select arm; exactly one arm runs, so
// the join is the intersection of the arms and the lock is gone.
func (c *counterSet) SelectRelease(done chan int) {
	c.mu.Lock()
	select {
	case <-done:
		c.mu.Unlock()
	default:
		c.n++
	}
	c.n++ // want "c.n is guarded by c.mu, which SelectRelease does not hold"
}

// RelockLoop re-acquires on every iteration; after the loop the entry
// state (unlocked) joins the body outcome (unlocked): no lock, but no
// access either. The access inside the body is covered.
func (c *counterSet) RelockLoop(rounds int) {
	for i := 0; i < rounds; i++ {
		c.mu.Lock()
		c.n += i
		c.mu.Unlock()
	}
}

// LoopUnlockBreak releases and breaks out of the loop: the break path
// reaches the code after the loop without the lock, while the access
// in the body, after the releasing branch, is still covered.
func (c *counterSet) LoopUnlockBreak(items []int) int {
	c.mu.Lock()
	for _, it := range items {
		if it > 10 {
			c.mu.Unlock()
			break
		}
		c.n += it
	}
	return c.n // want "c.n is guarded by c.mu, which LoopUnlockBreak does not hold"
}

// CaseRead compares against a guarded field in a case expression of a
// tagless switch: the comparison runs where the switch is, unlocked.
func (c *counterSet) CaseRead(limit int) bool {
	switch {
	case c.n > limit: // want "c.n is guarded by c.mu, which CaseRead does not hold"
		return true
	}
	return false
}

// bumpLocked is a negative: the Locked suffix is the caller-holds naming
// convention.
func (c *counterSet) bumpLocked() {
	c.n++
}

// addLoud must be called while holding c.mu. (A negative: the doc
// comment states the caller-holds contract.)
func (c *counterSet) addLoud(d int) {
	c.n += d
}

// fresh is a negative: an unpublished value needs no lock.
func fresh() *counterSet {
	c := &counterSet{}
	c.n = 1
	return c
}

// Closure locks around the call, but a function literal is a fresh
// context: the literal itself must take the lock.
func (c *counterSet) Closure() {
	f := func() {
		c.n++ // want "c.n is guarded by c.mu, which Closure does not hold"
	}
	c.mu.Lock()
	f()
	c.mu.Unlock()
}

// Snapshot exercises the suppression grammar on a deliberate racy read.
func (c *counterSet) Snapshot() int {
	//distcolor:ignore lockguard fixture: racy snapshot read is acceptable here
	return c.n
}

type instruments struct {
	hits int // guarded by s.mu
}

type server struct {
	mu  sync.Mutex
	obs *instruments
}

func (s *server) Record() {
	s.mu.Lock()
	s.obs.hits++
	s.mu.Unlock()
}

func (s *server) BadRecord() {
	s.obs.hits++ // want "s.obs.hits is guarded by s.mu, which BadRecord does not hold"
}
