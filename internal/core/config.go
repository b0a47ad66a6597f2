package core

import (
	"fmt"
	"sort"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Configurations and contexts are the paper's §5 policies, built from
// the primitives exactly as the DMS example builds them: a
// configuration names a composition of specific versions of component
// objects (a "representation" of a complex object); a context supplies
// default versions so generic references can be resolved against a
// chosen baseline rather than the latest.

// Config tree key prefixes.
const (
	cfgPrefix = "c:" // c:<name> → encoded bindings
	ctxPrefix = "x:" // x:<name> → encoded default-version map
)

// Binding ties a named slot of a configuration to a component. A nil VID
// is a dynamic binding (resolves to the latest version at use time); a
// set VID is a static binding (pins that version forever) — the paper's
// "versions in a configuration can be bound statically or dynamically".
type Binding struct {
	Slot string
	Obj  oid.OID
	VID  oid.VID // NilVID = dynamic
}

// Resolved is a binding after resolution: always a concrete version.
type Resolved struct {
	Slot string
	Obj  oid.OID
	VID  oid.VID
}

func cfgKey(name string) []byte { return append([]byte(cfgPrefix), name...) }
func ctxKey(name string) []byte { return append([]byte(ctxPrefix), name...) }

// Config tree values are prefixed with a representation tag: large
// configurations and contexts spill into the record heap because B+tree
// values are size-capped.
const (
	cfgInline   = 0 // tag byte followed by the raw encoding
	cfgIndirect = 1 // tag byte followed by a packed RID
)

// putConfigValue stores raw under key, spilling to the heap when it
// exceeds the tree's value budget, and frees any heap record the key's
// previous value used.
func (tx *shardTx) putConfigValue(key, raw []byte) error {
	if err := tx.dropConfigIndirect(key); err != nil {
		return err
	}
	if len(raw)+1 <= tx.config.MaxValueSize() {
		return tx.config.Put(key, append([]byte{cfgInline}, raw...))
	}
	rid, err := tx.heap.Insert(raw)
	if err != nil {
		return err
	}
	packed := rid.Pack()
	return tx.config.Put(key, append([]byte{cfgIndirect}, packed[:]...))
}

// getConfigValue loads a value stored by putConfigValue.
func (tx *shardTx) getConfigValue(key []byte) ([]byte, bool, error) {
	v, ok, err := tx.config.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(v) == 0 {
		return nil, false, fmt.Errorf("%w: empty config value", ErrCorrupt)
	}
	switch v[0] {
	case cfgInline:
		return v[1:], true, nil
	case cfgIndirect:
		if len(v) != 7 {
			return nil, false, fmt.Errorf("%w: bad indirect config value", ErrCorrupt)
		}
		raw, err := tx.heap.Read(oid.UnpackRID(v[1:7]))
		return raw, err == nil, err
	default:
		return nil, false, fmt.Errorf("%w: config value tag %d", ErrCorrupt, v[0])
	}
}

// dropConfigIndirect frees the heap record behind key's current value,
// if it has one.
func (tx *shardTx) dropConfigIndirect(key []byte) error {
	v, ok, err := tx.config.Get(key)
	if err != nil || !ok {
		return err
	}
	if len(v) == 7 && v[0] == cfgIndirect {
		return tx.heap.Delete(oid.UnpackRID(v[1:7]))
	}
	return nil
}

// deleteConfigValue removes key and any heap spill.
func (tx *shardTx) deleteConfigValue(key []byte) error {
	if err := tx.dropConfigIndirect(key); err != nil {
		return err
	}
	_, err := tx.config.Delete(key)
	return err
}

func encodeBindings(bs []Binding) []byte {
	w := make([]byte, 0, 16+24*len(bs))
	w = codec.AppendUVarint(w, uint64(len(bs)))
	for _, b := range bs {
		w = codec.AppendString32(w, b.Slot)
		w = codec.AppendUVarint(w, uint64(b.Obj))
		w = codec.AppendUVarint(w, uint64(b.VID))
	}
	return w
}

func decodeBindings(raw []byte) ([]Binding, error) {
	r := codec.NewReader(raw)
	n := int(r.UVarint())
	out := make([]Binding, 0, n)
	for i := 0; i < n; i++ {
		b := Binding{
			Slot: r.String32(),
			Obj:  oid.OID(r.UVarint()),
			VID:  oid.VID(r.UVarint()),
		}
		out = append(out, b)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: configuration: %v", ErrCorrupt, r.Err())
	}
	return out, nil
}

// SaveConfig stores (or replaces) a named configuration. Bindings are
// normalised to slot order. Static bindings are validated against live
// versions; dynamic bindings against live objects.
func (tx *shardTx) SaveConfig(name string, bindings []Binding) error {
	if name == "" {
		return fmt.Errorf("ode: empty configuration name")
	}
	bs := append([]Binding(nil), bindings...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Slot < bs[j].Slot })
	for _, b := range bs {
		if b.VID.IsNil() {
			if ok, err := tx.rt.Exists(b.Obj); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("%w: %v in configuration %q", ErrNoObject, b.Obj, name)
			}
			continue
		}
		if _, err := tx.rt.loadVerOf(b.Obj, b.VID); err != nil {
			return fmt.Errorf("configuration %q slot %q: %w", name, b.Slot, err)
		}
	}
	if err := tx.putConfigValue(cfgKey(name), encodeBindings(bs)); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// GetConfig returns a configuration's raw bindings.
func (tx *shardTx) GetConfig(name string) ([]Binding, bool, error) {
	raw, ok, err := tx.getConfigValue(cfgKey(name))
	if err != nil || !ok {
		return nil, false, err
	}
	bs, err := decodeBindings(raw)
	return bs, err == nil, err
}

// ResolveConfig resolves a configuration to concrete versions: static
// bindings keep their pinned vid; dynamic bindings bind to the latest
// version at call time (late binding).
func (tx *shardTx) ResolveConfig(name string) ([]Resolved, error) {
	bs, ok, err := tx.GetConfig(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("ode: no configuration %q", name)
	}
	out := make([]Resolved, 0, len(bs))
	for _, b := range bs {
		v := b.VID
		if v.IsNil() {
			v, err = tx.rt.Latest(b.Obj)
			if err != nil {
				return nil, fmt.Errorf("configuration %q slot %q: %w", name, b.Slot, err)
			}
		}
		out = append(out, Resolved{Slot: b.Slot, Obj: b.Obj, VID: v})
	}
	return out, nil
}

// DeleteConfig removes a configuration; unknown names are not an error.
func (tx *shardTx) DeleteConfig(name string) error {
	if err := tx.deleteConfigValue(cfgKey(name)); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// Configs lists configuration names in order.
func (tx *shardTx) Configs() ([]string, error) {
	var out []string
	err := tx.config.AscendPrefix([]byte(cfgPrefix), func(k, _ []byte) (bool, error) {
		out = append(out, string(k[len(cfgPrefix):]))
		return true, nil
	})
	return out, err
}

// --- contexts ---

// SetContext stores a context: a set of default versions, one per
// object. Dereferencing an object id "in" a context yields the context's
// pinned version when present, the latest otherwise.
func (tx *shardTx) SetContext(name string, defaults map[oid.OID]oid.VID) error {
	if name == "" {
		return fmt.Errorf("ode: empty context name")
	}
	objs := make([]oid.OID, 0, len(defaults))
	for o := range defaults {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	w := make([]byte, 0, 16+16*len(objs))
	w = codec.AppendUVarint(w, uint64(len(objs)))
	for _, o := range objs {
		v := defaults[o]
		if _, err := tx.rt.loadVerOf(o, v); err != nil {
			return fmt.Errorf("context %q: %w", name, err)
		}
		w = codec.AppendUVarint(w, uint64(o))
		w = codec.AppendUVarint(w, uint64(v))
	}
	if err := tx.putConfigValue(ctxKey(name), w); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// GetContext returns a context's default-version map.
func (tx *shardTx) GetContext(name string) (map[oid.OID]oid.VID, bool, error) {
	raw, ok, err := tx.getConfigValue(ctxKey(name))
	if err != nil || !ok {
		return nil, false, err
	}
	r := codec.NewReader(raw)
	n := int(r.UVarint())
	out := make(map[oid.OID]oid.VID, n)
	for i := 0; i < n; i++ {
		o := oid.OID(r.UVarint())
		v := oid.VID(r.UVarint())
		out[o] = v
	}
	if r.Err() != nil {
		return nil, false, fmt.Errorf("%w: context: %v", ErrCorrupt, r.Err())
	}
	return out, true, nil
}

// ResolveInContext dereferences an object id under a context: the
// context's default version when the context pins one, the latest
// otherwise. An empty context name resolves to the latest directly.
func (tx *shardTx) ResolveInContext(ctx string, o oid.OID) (oid.VID, error) {
	if ctx != "" {
		m, ok, err := tx.GetContext(ctx)
		if err != nil {
			return oid.NilVID, err
		}
		if !ok {
			return oid.NilVID, fmt.Errorf("ode: no context %q", ctx)
		}
		if v, pinned := m[o]; pinned {
			return v, nil
		}
	}
	return tx.rt.Latest(o)
}

// DeleteContext removes a context; unknown names are not an error.
func (tx *shardTx) DeleteContext(name string) error {
	if err := tx.deleteConfigValue(ctxKey(name)); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// Contexts lists context names in order.
func (tx *shardTx) Contexts() ([]string, error) {
	var out []string
	err := tx.config.AscendPrefix([]byte(ctxPrefix), func(k, _ []byte) (bool, error) {
		out = append(out, string(k[len(ctxPrefix):]))
		return true, nil
	})
	return out, err
}
