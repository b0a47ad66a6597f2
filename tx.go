package ode

import (
	"ode/internal/core"
	"ode/internal/oid"
)

// ErrTxDone reports use of a Tx after its Update/View closure returned.
// A handle is only valid inside the callback that created it; letting
// one escape and using it later was silently accepted before and now
// fails loudly.
var ErrTxDone = core.ErrTxDone

// Tx is a transaction handle. All object access goes through one; a Tx
// is only valid inside the db.Update / db.View callback that created it.
// It is invalidated when the callback returns: every later call fails
// with ErrTxDone. A Tx must not cross goroutines.
type Tx struct {
	db       *DB
	ctx      *core.Tx
	writable bool
	done     bool
}

// Writable reports whether mutations are allowed in this transaction.
func (tx *Tx) Writable() bool { return tx.writable }

// guard rejects use of an ended (escaped) handle.
func (tx *Tx) guard() error {
	if tx == nil || tx.done || tx.ctx == nil {
		return ErrTxDone
	}
	return nil
}

func (tx *Tx) guardWrite() error {
	if err := tx.guard(); err != nil {
		return err
	}
	if !tx.writable {
		return ErrReadOnly
	}
	return nil
}

// --- raw (untyped) object access ---
// These operate on raw byte payloads; most callers use the typed layer
// (Register / Type / Ptr / VPtr) instead.

// CreateRaw allocates an object of a registered type with raw content —
// the paper's pnew.
func (tx *Tx) CreateRaw(t TypeID, content []byte) (OID, VID, error) {
	if err := tx.guardWrite(); err != nil {
		return oid.NilOID, oid.NilVID, err
	}
	return tx.ctx.Create(t, content)
}

// ReadLatestRaw dereferences a generic reference: the latest version's
// content and vid.
func (tx *Tx) ReadLatestRaw(o OID) ([]byte, VID, error) {
	if err := tx.guard(); err != nil {
		return nil, oid.NilVID, err
	}
	return tx.ctx.ReadLatest(o)
}

// ReadVersionRaw dereferences a specific reference.
func (tx *Tx) ReadVersionRaw(o OID, v VID) ([]byte, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.ReadVersion(o, v)
}

// UpdateLatestRaw overwrites the latest version in place (no new
// version).
func (tx *Tx) UpdateLatestRaw(o OID, content []byte) (VID, error) {
	if err := tx.guardWrite(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.UpdateLatest(o, content)
}

// UpdateVersionRaw overwrites one version in place.
func (tx *Tx) UpdateVersionRaw(o OID, v VID, content []byte) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.UpdateVersion(o, v, content)
}

// NewVersion creates a version derived from the latest — newversion(oid).
func (tx *Tx) NewVersion(o OID) (VID, error) {
	if err := tx.guardWrite(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.NewVersion(o)
}

// NewVersionFrom creates a version derived from a specific base —
// newversion(vid).
func (tx *Tx) NewVersionFrom(o OID, base VID) (VID, error) {
	if err := tx.guardWrite(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.NewVersionFrom(o, base)
}

// DeleteObject removes an object and all its versions — pdelete(oid).
func (tx *Tx) DeleteObject(o OID) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.DeleteObject(o)
}

// DeleteVersion removes one version, splicing the derivation tree —
// pdelete(vid).
func (tx *Tx) DeleteVersion(o OID, v VID) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.DeleteVersion(o, v)
}

// --- metadata and traversal ---

// Exists reports whether the object is live.
func (tx *Tx) Exists(o OID) (bool, error) {
	if err := tx.guard(); err != nil {
		return false, err
	}
	return tx.ctx.Exists(o)
}

// TypeOf returns the catalog type of a live object.
func (tx *Tx) TypeOf(o OID) (TypeID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilType, err
	}
	return tx.ctx.TypeOf(o)
}

// Latest returns the vid the object id currently binds to.
func (tx *Tx) Latest(o OID) (VID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.Latest(o)
}

// Owner resolves a vid to its object.
func (tx *Tx) Owner(v VID) (OID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilOID, err
	}
	return tx.ctx.Owner(v)
}

// VersionCount returns the object's live version count.
func (tx *Tx) VersionCount(o OID) (uint64, error) {
	if err := tx.guard(); err != nil {
		return 0, err
	}
	return tx.ctx.VersionCount(o)
}

// VersionInfo is a version's metadata (stamp, relationships, storage).
type VersionInfo = core.VersionInfo

// Info returns a version's metadata.
func (tx *Tx) Info(o OID, v VID) (VersionInfo, error) {
	if err := tx.guard(); err != nil {
		return VersionInfo{}, err
	}
	return tx.ctx.Info(o, v)
}

// Dprev returns the derived-from parent — the paper's Dprevious.
func (tx *Tx) Dprev(o OID, v VID) (VID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.Dprev(o, v)
}

// Tprev returns the temporal predecessor — the paper's Tprevious.
func (tx *Tx) Tprev(o OID, v VID) (VID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.Tprev(o, v)
}

// Tnext returns the temporal successor.
func (tx *Tx) Tnext(o OID, v VID) (VID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.Tnext(o, v)
}

// DChildren returns the versions directly derived from v (alternatives
// when there are several), in vid order. Near the latest version it
// costs a few lookups; deeper in history it scans every version of o.
func (tx *Tx) DChildren(o OID, v VID) ([]VID, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.DChildren(o, v)
}

// History returns the derivation chain from v back to the root.
func (tx *Tx) History(o OID, v VID) ([]VID, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.History(o, v)
}

// Leaves returns the tips of the object's alternative designs.
func (tx *Tx) Leaves(o OID) ([]VID, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.Leaves(o)
}

// Versions returns all live versions in temporal order.
func (tx *Tx) Versions(o OID) ([]VID, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.Versions(o)
}

// AsOf returns the version that was latest at stamp s.
func (tx *Tx) AsOf(o OID, s Stamp) (VID, bool, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, false, err
	}
	return tx.ctx.AsOf(o, s)
}

// AsOfWalk answers the same question as AsOf by walking the temporal
// chain (exists to cross-check the temporal index; used by benchmarks).
func (tx *Tx) AsOfWalk(o OID, s Stamp) (VID, bool, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, false, err
	}
	return tx.ctx.AsOfWalk(o, s)
}

// CurrentStamp returns the database's logical clock.
func (tx *Tx) CurrentStamp() Stamp {
	if err := tx.guard(); err != nil {
		return 0
	}
	return tx.ctx.CurrentStamp()
}

// Render returns a textual drawing of the object's version graph
// (derived-from tree plus temporal chain).
func (tx *Tx) Render(o OID) (string, error) {
	if err := tx.guard(); err != nil {
		return "", err
	}
	return tx.ctx.Render(o)
}

// --- configurations and contexts ---

// Binding ties a configuration slot to a component object; a zero VID
// binds dynamically (latest at resolve time), a set VID statically.
type Binding = core.Binding

// Resolved is a binding resolved to a concrete version.
type Resolved = core.Resolved

// SaveConfig stores a named configuration.
func (tx *Tx) SaveConfig(name string, bindings []Binding) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.SaveConfig(name, bindings)
}

// GetConfig returns a configuration's bindings.
func (tx *Tx) GetConfig(name string) ([]Binding, bool, error) {
	if err := tx.guard(); err != nil {
		return nil, false, err
	}
	return tx.ctx.GetConfig(name)
}

// ResolveConfig resolves a configuration: static slots keep their pinned
// version, dynamic slots bind to the latest.
func (tx *Tx) ResolveConfig(name string) ([]Resolved, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.ResolveConfig(name)
}

// DeleteConfig removes a configuration.
func (tx *Tx) DeleteConfig(name string) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.DeleteConfig(name)
}

// Configs lists configuration names.
func (tx *Tx) Configs() ([]string, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.Configs()
}

// SetContext stores a context: default versions for a set of objects.
func (tx *Tx) SetContext(name string, defaults map[OID]VID) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.SetContext(name, defaults)
}

// GetContext returns a context's default-version map.
func (tx *Tx) GetContext(name string) (map[OID]VID, bool, error) {
	if err := tx.guard(); err != nil {
		return nil, false, err
	}
	return tx.ctx.GetContext(name)
}

// ResolveInContext dereferences an object id under a context.
func (tx *Tx) ResolveInContext(ctx string, o OID) (VID, error) {
	if err := tx.guard(); err != nil {
		return oid.NilVID, err
	}
	return tx.ctx.ResolveInContext(ctx, o)
}

// DeleteContext removes a context.
func (tx *Tx) DeleteContext(name string) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.DeleteContext(name)
}

// Contexts lists context names.
func (tx *Tx) Contexts() ([]string, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.Contexts()
}

// --- extents ---

// Extent iterates every object of type t in oid order.
func (tx *Tx) Extent(t TypeID, fn func(o OID) (bool, error)) error {
	if err := tx.guard(); err != nil {
		return err
	}
	return tx.ctx.Extent(t, fn)
}

// ExtentCount returns the number of objects of type t.
func (tx *Tx) ExtentCount(t TypeID) (int, error) {
	if err := tx.guard(); err != nil {
		return 0, err
	}
	return tx.ctx.ExtentCount(t)
}

// --- version annotations ---

// Annotate sets (or clears, with an empty value) a key→value annotation
// on one version. Annotations are per-version state markers — the
// primitive behind Klahold-style version partitioning (valid /
// in-progress / effective ...), which the paper's related work cites.
func (tx *Tx) Annotate(o OID, v VID, key, value string) error {
	if err := tx.guardWrite(); err != nil {
		return err
	}
	return tx.ctx.Annotate(o, v, key, value)
}

// Annotations returns a version's annotation map (ok=false when none).
func (tx *Tx) Annotations(o OID, v VID) (map[string]string, bool, error) {
	if err := tx.guard(); err != nil {
		return nil, false, err
	}
	return tx.ctx.Annotations(o, v)
}

// Annotation returns one annotation value (ok=false when unset).
func (tx *Tx) Annotation(o OID, v VID, key string) (string, bool, error) {
	if err := tx.guard(); err != nil {
		return "", false, err
	}
	return tx.ctx.Annotation(o, v, key)
}

// VersionsWhere returns the versions whose annotation key equals value,
// in temporal order.
func (tx *Tx) VersionsWhere(o OID, key, value string) ([]VID, error) {
	if err := tx.guard(); err != nil {
		return nil, err
	}
	return tx.ctx.VersionsWhere(o, key, value)
}
