package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ode/internal/codec"
	"ode/internal/oid"
)

// Version annotations: arbitrary key→value strings attached to a single
// version. The paper's related work (§7) describes Klahold et al.'s
// version environments, which "partition versions according to specific
// properties (valid, invalid, in-progress, alternative, effective,
// etc.)" — annotations are the primitive such partitioning policies
// need. Annotations are per-version (not per-object): they describe a
// state of the design, so they must not travel when the object id
// re-binds.
//
// Storage: one record per annotated version in the config tree
// ("a:" + oid + vid → encoded map), spilled to the heap via the same
// indirection as large configurations. Deleting a version or object
// removes its annotations.

const annPrefix = "a:"

func annKey(o oid.OID, v oid.VID) []byte {
	b := make([]byte, 2, 18)
	copy(b, annPrefix)
	b = binary.BigEndian.AppendUint64(b, uint64(o))
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

func annObjPrefix(o oid.OID) []byte {
	b := make([]byte, 2, 10)
	copy(b, annPrefix)
	return binary.BigEndian.AppendUint64(b, uint64(o))
}

func encodeAnnotations(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := make([]byte, 0, 16+16*len(m))
	w = codec.AppendUVarint(w, uint64(len(keys)))
	for _, k := range keys {
		w = codec.AppendString32(w, k)
		w = codec.AppendString32(w, m[k])
	}
	return w
}

func decodeAnnotations(raw []byte) (map[string]string, error) {
	r := codec.NewReader(raw)
	n := int(r.UVarint())
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String32()
		v := r.String32()
		out[k] = v
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: annotations: %v", ErrCorrupt, r.Err())
	}
	return out, nil
}

// Annotate sets (or with value=="" clears) one annotation on a version.
func (tx *shardTx) Annotate(o oid.OID, v oid.VID, key, value string) error {
	if key == "" {
		return fmt.Errorf("ode: empty annotation key")
	}
	if _, err := tx.loadVer(o, v); err != nil {
		return err
	}
	m, _, err := tx.Annotations(o, v)
	if err != nil {
		return err
	}
	if m == nil {
		m = map[string]string{}
	}
	if value == "" {
		delete(m, key)
	} else {
		m[key] = value
	}
	k := annKey(o, v)
	if len(m) == 0 {
		if err := tx.deleteConfigValue(k); err != nil {
			return err
		}
	} else if err := tx.putConfigValue(k, encodeAnnotations(m)); err != nil {
		return err
	}
	tx.saveRoots()
	return nil
}

// Annotations returns a version's annotation map (nil, false when the
// version has none).
func (tx *shardTx) Annotations(o oid.OID, v oid.VID) (map[string]string, bool, error) {
	raw, ok, err := tx.getConfigValue(annKey(o, v))
	if err != nil || !ok {
		return nil, false, err
	}
	m, err := decodeAnnotations(raw)
	return m, err == nil, err
}

// Annotation returns one annotation value (ok=false when unset).
func (tx *shardTx) Annotation(o oid.OID, v oid.VID, key string) (string, bool, error) {
	m, ok, err := tx.Annotations(o, v)
	if err != nil || !ok {
		return "", false, err
	}
	val, present := m[key]
	return val, present, nil
}

// VersionsWhere returns the object's versions whose annotation key has
// the given value, in temporal order — the partitioning query the
// Klahold model builds its version environments from.
func (tx *shardTx) VersionsWhere(o oid.OID, key, value string) ([]oid.VID, error) {
	vs, err := tx.Versions(o)
	if err != nil {
		return nil, err
	}
	var out []oid.VID
	for _, v := range vs {
		got, ok, err := tx.Annotation(o, v, key)
		if err != nil {
			return nil, err
		}
		if ok && got == value {
			out = append(out, v)
		}
	}
	return out, nil
}

// dropAnnotations removes all annotations of one version (on version
// deletion).
func (tx *shardTx) dropAnnotations(o oid.OID, v oid.VID) error {
	return tx.deleteConfigValue(annKey(o, v))
}

// dropAllAnnotations removes every annotation of an object (on object
// deletion).
func (tx *shardTx) dropAllAnnotations(o oid.OID) error {
	var keys [][]byte
	err := tx.config.AscendPrefix(annObjPrefix(o), func(k, _ []byte) (bool, error) {
		keys = append(keys, append([]byte(nil), k...))
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := tx.deleteConfigValue(k); err != nil {
			return err
		}
	}
	return nil
}
