package policy

import (
	"sync"

	"ode"
)

// Percolator implements version percolation as a policy: when a
// component object gains a new version, every composite that declared a
// dependency on it automatically gains a new version too, transitively.
// The paper excludes this from the kernel precisely because "creating a
// new version can lead to the automatic creation of a large number of
// versions of other objects" (§2) — experiment E5 measures that blowup.
//
// Handlers run inside the triggering transaction, so the percolated
// versions commit or abort atomically with the change that caused them.
type Percolator struct {
	db *ode.DB

	mu sync.Mutex
	// parents maps a component to the composites that contain it.
	parents map[ode.OID][]ode.OID
	// inFlight breaks cycles per firing transaction: the composites a
	// cascade is currently percolating, keyed by the firing engine
	// transaction (ode.Event.Tx, stable for one transaction attempt).
	// Keying per transaction keeps concurrent transactions from
	// suppressing each other's percolations, and entries are cleared by
	// defer so a restart — which unwinds the handler by panic and reruns
	// the whole closure — cannot leave a stale entry that would silently
	// skip percolation on the rerun.
	inFlight map[any]map[ode.OID]bool
	// created counts percolated versions (for the experiment harness).
	created uint64
	err     error
	trig    ode.TriggerID
	active  bool
}

// NewPercolator creates an inactive percolator; call Enable to attach
// its trigger.
func NewPercolator(db *ode.DB) *Percolator {
	return &Percolator{
		db:       db,
		parents:  make(map[ode.OID][]ode.OID),
		inFlight: make(map[any]map[ode.OID]bool),
	}
}

// Declare records that composite contains the given components, so a new
// version of any component percolates to composite.
func (p *Percolator) Declare(composite ode.OID, components ...ode.OID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range components {
		p.parents[c] = append(p.parents[c], composite)
	}
}

// Enable attaches the percolation trigger.
func (p *Percolator) Enable() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		return
	}
	p.active = true
	p.trig = p.db.OnAll(ode.On(ode.EvNewVersion), false, p.onNewVersion)
}

// Disable detaches the trigger.
func (p *Percolator) Disable() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	p.active = false
	p.db.RemoveTrigger(p.trig)
}

// Created returns the number of versions this percolator has created.
func (p *Percolator) Created() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// onNewVersion runs inside the transaction that created a version.
func (p *Percolator) onNewVersion(e ode.Event) {
	tx := p.db.TxOf(e)
	if tx == nil {
		p.mu.Lock()
		if p.err == nil {
			p.err = ode.ErrTxDone
		}
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	composites := append([]ode.OID(nil), p.parents[e.Obj]...)
	p.mu.Unlock()
	for _, comp := range composites {
		if !p.enter(e.Tx, comp) {
			continue // already percolating comp in this cascade: a cycle
		}
		// We are inside the firing Update transaction and mutate through
		// its handle, so the percolated versions are atomic with the
		// triggering change. A failure here is recorded and surfaces via
		// Err (the kernel treats triggers as notifications and does not
		// let them veto operations). A restart is not an error and never
		// reaches err: NewVersion panics to end the attempt — the
		// composite lives on a lower shard whose try-lock failed, or the
		// shard map moved — and the whole closure reruns. The deferred
		// leave keeps the in-flight set clean through that unwind.
		err := func() error {
			defer p.leave(e.Tx, comp)
			_, err := tx.NewVersion(comp)
			return err
		}()
		p.mu.Lock()
		if err == nil {
			p.created++
		} else if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
}

// enter marks comp as being percolated by txKey's cascade; false means
// the cascade is already percolating it (a Declare cycle) and the
// caller must skip it.
func (p *Percolator) enter(txKey any, comp ode.OID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	fl := p.inFlight[txKey]
	if fl[comp] {
		return false
	}
	if fl == nil {
		fl = make(map[ode.OID]bool)
		p.inFlight[txKey] = fl
	}
	fl[comp] = true
	return true
}

// leave clears comp from txKey's cascade, dropping the per-transaction
// set when it empties so finished transactions leave nothing behind.
func (p *Percolator) leave(txKey any, comp ode.OID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fl := p.inFlight[txKey]
	delete(fl, comp)
	if len(fl) == 0 {
		delete(p.inFlight, txKey)
	}
}

// Err returns the first error any percolation encountered, if any.
func (p *Percolator) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
