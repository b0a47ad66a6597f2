package ode

// This file is the Go rendering of the paper's §6 implementation trick:
// "by overloading the definitions of the -> and * operators we were able
// to define class VersionPtr in such a way that its objects could be
// manipulated just like normal pointers." Go has no operator
// overloading; type parameters give the same effect — Ptr[T] and VPtr[T]
// carry the element type, so dereferencing is type-safe and reads like
// pointer use: p.Deref(tx), p.Set(tx, v), p.NewVersion(tx).

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ode/internal/oid"
)

// Codec serialises values of T for storage. The default is encoding/gob;
// RegisterWithCodec accepts custom implementations.
type Codec[T any] interface {
	Marshal(*T) ([]byte, error)
	Unmarshal([]byte) (*T, error)
}

// GobCodec is the default gob-based Codec.
type GobCodec[T any] struct{}

// Marshal implements Codec.
func (GobCodec[T]) Marshal(v *T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("ode: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal implements Codec.
func (GobCodec[T]) Unmarshal(b []byte) (*T, error) {
	v := new(T)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return nil, fmt.Errorf("ode: gob decode: %w", err)
	}
	return v, nil
}

// Type is a registered persistent type: the typed facade over the
// engine for values of T.
type Type[T any] struct {
	db    *DB
	id    TypeID
	name  string
	codec Codec[T]
}

// Register registers (idempotently) a persistent type under name using
// the gob codec. Call it once per type after Open, outside transactions.
func Register[T any](db *DB, name string) (*Type[T], error) {
	return RegisterWithCodec[T](db, name, GobCodec[T]{})
}

// RegisterWithCodec registers a type with a custom codec.
func RegisterWithCodec[T any](db *DB, name string, c Codec[T]) (*Type[T], error) {
	id, err := db.eng.RegisterType(name)
	if err != nil {
		return nil, err
	}
	return &Type[T]{db: db, id: id, name: name, codec: c}, nil
}

// ID returns the catalog type id.
func (ty *Type[T]) ID() TypeID { return ty.id }

// Name returns the registered type name.
func (ty *Type[T]) Name() string { return ty.name }

// Create allocates a persistent object holding v — the paper's pnew —
// and returns its generic reference.
func (ty *Type[T]) Create(tx *Tx, v *T) (Ptr[T], error) {
	raw, err := ty.codec.Marshal(v)
	if err != nil {
		return Ptr[T]{}, err
	}
	o, _, err := tx.CreateRaw(ty.id, raw)
	if err != nil {
		return Ptr[T]{}, err
	}
	return Ptr[T]{obj: o, ty: ty}, nil
}

// Ref wraps a known OID as a typed generic reference, verifying the
// object's catalog type.
func (ty *Type[T]) Ref(tx *Tx, o OID) (Ptr[T], error) {
	got, err := tx.TypeOf(o)
	if err != nil {
		return Ptr[T]{}, err
	}
	if got != ty.id {
		return Ptr[T]{}, fmt.Errorf("ode: %v is a %v, not %q", o, got, ty.name)
	}
	return Ptr[T]{obj: o, ty: ty}, nil
}

// Extent calls fn for every object of the type, in oid order.
func (ty *Type[T]) Extent(tx *Tx, fn func(p Ptr[T]) (bool, error)) error {
	return tx.Extent(ty.id, func(o OID) (bool, error) {
		return fn(Ptr[T]{obj: o, ty: ty})
	})
}

// Select returns the generic references of all objects whose latest
// version satisfies pred — O++'s extent query, evaluated against the
// latest versions (generic references, as the paper's address-book
// example requires).
func (ty *Type[T]) Select(tx *Tx, pred func(*T) bool) ([]Ptr[T], error) {
	var out []Ptr[T]
	err := ty.Extent(tx, func(p Ptr[T]) (bool, error) {
		v, err := p.Deref(tx)
		if err != nil {
			return false, err
		}
		if pred(v) {
			out = append(out, p)
		}
		return true, nil
	})
	return out, err
}

// Count returns the number of objects of the type.
func (ty *Type[T]) Count(tx *Tx) (int, error) { return tx.ExtentCount(ty.id) }

// Ptr is a typed generic reference — the paper's object id wrapped in a
// VersionPtr. Dereferencing binds dynamically to the latest version.
// The zero Ptr is nil (IsNil reports true).
type Ptr[T any] struct {
	obj OID
	ty  *Type[T]
}

// OID returns the underlying object id.
func (p Ptr[T]) OID() OID { return p.obj }

// IsNil reports whether the reference is null.
func (p Ptr[T]) IsNil() bool { return p.obj.IsNil() }

// String implements fmt.Stringer.
func (p Ptr[T]) String() string { return p.obj.String() }

// Deref returns the latest version's value (dynamic binding).
func (p Ptr[T]) Deref(tx *Tx) (*T, error) {
	raw, _, err := tx.ReadLatestRaw(p.obj)
	if err != nil {
		return nil, err
	}
	return p.ty.codec.Unmarshal(raw)
}

// Set overwrites the latest version in place (no new version).
func (p Ptr[T]) Set(tx *Tx, v *T) error {
	raw, err := p.ty.codec.Marshal(v)
	if err != nil {
		return err
	}
	_, err = tx.UpdateLatestRaw(p.obj, raw)
	return err
}

// Modify dereferences the latest version, applies fn, and writes the
// result back in place.
func (p Ptr[T]) Modify(tx *Tx, fn func(*T)) error {
	v, err := p.Deref(tx)
	if err != nil {
		return err
	}
	fn(v)
	return p.Set(tx, v)
}

// Pin returns a specific reference to the version the generic reference
// currently binds to (early binding of a late-bound pointer).
func (p Ptr[T]) Pin(tx *Tx) (VPtr[T], error) {
	v, err := tx.Latest(p.obj)
	if err != nil {
		return VPtr[T]{}, err
	}
	return VPtr[T]{obj: p.obj, vid: v, ty: p.ty}, nil
}

// NewVersion creates a version derived from the latest — newversion(oid)
// — and returns a specific reference to it.
func (p Ptr[T]) NewVersion(tx *Tx) (VPtr[T], error) {
	v, err := tx.NewVersion(p.obj)
	if err != nil {
		return VPtr[T]{}, err
	}
	return VPtr[T]{obj: p.obj, vid: v, ty: p.ty}, nil
}

// Delete removes the object and all its versions — pdelete(oid).
func (p Ptr[T]) Delete(tx *Tx) error { return tx.DeleteObject(p.obj) }

// Versions returns specific references to all live versions in temporal
// order.
func (p Ptr[T]) Versions(tx *Tx) ([]VPtr[T], error) {
	vids, err := tx.Versions(p.obj)
	if err != nil {
		return nil, err
	}
	return p.wrapAll(vids), nil
}

// Leaves returns the tips of the derived-from tree (the alternatives'
// most up-to-date versions).
func (p Ptr[T]) Leaves(tx *Tx) ([]VPtr[T], error) {
	vids, err := tx.Leaves(p.obj)
	if err != nil {
		return nil, err
	}
	return p.wrapAll(vids), nil
}

// AsOf returns a specific reference to the version that was latest at
// stamp s (ok=false if the object did not exist yet).
func (p Ptr[T]) AsOf(tx *Tx, s Stamp) (VPtr[T], bool, error) {
	v, ok, err := tx.AsOf(p.obj, s)
	if err != nil || !ok {
		return VPtr[T]{}, false, err
	}
	return VPtr[T]{obj: p.obj, vid: v, ty: p.ty}, true, nil
}

// VersionCount returns the number of live versions.
func (p Ptr[T]) VersionCount(tx *Tx) (uint64, error) { return tx.VersionCount(p.obj) }

func (p Ptr[T]) wrapAll(vids []VID) []VPtr[T] {
	out := make([]VPtr[T], len(vids))
	for i, v := range vids {
		out[i] = VPtr[T]{obj: p.obj, vid: v, ty: p.ty}
	}
	return out
}

// VPtr is a typed specific reference — a version id wrapped in a
// VersionPtr. Dereferencing always yields the same version's state
// (static binding).
type VPtr[T any] struct {
	obj OID
	vid VID
	ty  *Type[T]
}

// OID returns the owning object's id.
func (v VPtr[T]) OID() OID { return v.obj }

// VID returns the version id.
func (v VPtr[T]) VID() VID { return v.vid }

// IsNil reports whether the reference is null.
func (v VPtr[T]) IsNil() bool { return v.vid.IsNil() }

// String implements fmt.Stringer.
func (v VPtr[T]) String() string { return fmt.Sprintf("%v/%v", v.obj, v.vid) }

// Ptr returns the generic reference to the owning object.
func (v VPtr[T]) Ptr() Ptr[T] { return Ptr[T]{obj: v.obj, ty: v.ty} }

// Deref returns this version's value.
func (v VPtr[T]) Deref(tx *Tx) (*T, error) {
	raw, err := tx.ReadVersionRaw(v.obj, v.vid)
	if err != nil {
		return nil, err
	}
	return v.ty.codec.Unmarshal(raw)
}

// Set overwrites this version's contents in place.
func (v VPtr[T]) Set(tx *Tx, val *T) error {
	raw, err := v.ty.codec.Marshal(val)
	if err != nil {
		return err
	}
	return tx.UpdateVersionRaw(v.obj, v.vid, raw)
}

// Modify dereferences, applies fn, and writes back in place.
func (v VPtr[T]) Modify(tx *Tx, fn func(*T)) error {
	val, err := v.Deref(tx)
	if err != nil {
		return err
	}
	fn(val)
	return v.Set(tx, val)
}

// NewVersion creates a version derived from this one — newversion(vid).
// Calling it on a non-latest version creates an alternative.
func (v VPtr[T]) NewVersion(tx *Tx) (VPtr[T], error) {
	nv, err := tx.NewVersionFrom(v.obj, v.vid)
	if err != nil {
		return VPtr[T]{}, err
	}
	return VPtr[T]{obj: v.obj, vid: nv, ty: v.ty}, nil
}

// Delete removes this version, splicing the derivation tree —
// pdelete(vid).
func (v VPtr[T]) Delete(tx *Tx) error { return tx.DeleteVersion(v.obj, v.vid) }

// Dprev returns the derived-from parent (nil reference at the root).
func (v VPtr[T]) Dprev(tx *Tx) (VPtr[T], error) {
	d, err := tx.Dprev(v.obj, v.vid)
	if err != nil {
		return VPtr[T]{}, err
	}
	return v.sibling(d), nil
}

// Tprev returns the temporal predecessor (nil reference at the oldest).
func (v VPtr[T]) Tprev(tx *Tx) (VPtr[T], error) {
	p, err := tx.Tprev(v.obj, v.vid)
	if err != nil {
		return VPtr[T]{}, err
	}
	return v.sibling(p), nil
}

// Tnext returns the temporal successor (nil reference at the latest).
func (v VPtr[T]) Tnext(tx *Tx) (VPtr[T], error) {
	n, err := tx.Tnext(v.obj, v.vid)
	if err != nil {
		return VPtr[T]{}, err
	}
	return v.sibling(n), nil
}

// DChildren returns the versions derived from this one, in vid order.
// It is cheap near the latest version and scans the object's whole
// history for an old one.
func (v VPtr[T]) DChildren(tx *Tx) ([]VPtr[T], error) {
	vids, err := tx.DChildren(v.obj, v.vid)
	if err != nil {
		return nil, err
	}
	out := make([]VPtr[T], len(vids))
	for i, c := range vids {
		out[i] = v.sibling(c)
	}
	return out, nil
}

// History returns the derivation chain from this version to the root.
func (v VPtr[T]) History(tx *Tx) ([]VPtr[T], error) {
	vids, err := tx.History(v.obj, v.vid)
	if err != nil {
		return nil, err
	}
	out := make([]VPtr[T], len(vids))
	for i, c := range vids {
		out[i] = v.sibling(c)
	}
	return out, nil
}

// Info returns the version's metadata.
func (v VPtr[T]) Info(tx *Tx) (VersionInfo, error) { return tx.Info(v.obj, v.vid) }

func (v VPtr[T]) sibling(vid oid.VID) VPtr[T] {
	if vid.IsNil() {
		return VPtr[T]{}
	}
	return VPtr[T]{obj: v.obj, vid: vid, ty: v.ty}
}

// Annotate sets (or clears, with an empty value) an annotation on this
// version.
func (v VPtr[T]) Annotate(tx *Tx, key, value string) error {
	return tx.Annotate(v.obj, v.vid, key, value)
}

// Annotations returns this version's annotation map.
func (v VPtr[T]) Annotations(tx *Tx) (map[string]string, bool, error) {
	return tx.Annotations(v.obj, v.vid)
}

// Annotation returns one annotation value of this version.
func (v VPtr[T]) Annotation(tx *Tx, key string) (string, bool, error) {
	return tx.Annotation(v.obj, v.vid, key)
}
