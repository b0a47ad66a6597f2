package btree

import (
	"fmt"

	"ode/internal/oid"
)

// Reencode passes a node body through the reference decoder and encoder
// (reference_test.go) for the external format test.
func Reencode(body []byte) ([]byte, error) {
	n, err := decodeNode(body)
	if err != nil {
		return nil, err
	}
	return encodeNode(n, len(body)), nil
}

// CheckOffsets checks every node reachable from the root as the tree's
// view sees it: a node whose entry-offset table is current must hold
// exactly the table its bytes build now. It builds no table itself.
func (t *Tree) CheckOffsets() error {
	return t.checkOffsets(t.root, 0)
}

func (t *Tree) checkOffsets(id oid.PageID, depth int) error {
	pg, c, err := t.open(id, depth)
	if err != nil {
		return err
	}
	current, ok := t.st.Offsets(pg, func([]byte, []uint16) ([]uint16, bool) { return nil, false })
	// Walk the node once, comparing each entry's start with the table's
	// and collecting a branch's children.
	same := !ok || (len(current) == c.n+1 && int(current[0]) == c.off)
	var children []oid.PageID
	if !c.leaf {
		children = append(children, pageID(c.b[hdrSize:]))
	}
	for i := 1; c.n > 0; i++ {
		_, v, vok := c.next()
		if !vok {
			return corrupt(id)
		}
		same = same && (!ok || int(current[i]) == c.off)
		if !c.leaf {
			children = append(children, pageID(v))
		}
	}
	if !same {
		want, _ := offsets(c.b, nil)
		return fmt.Errorf("page %d: current offset table %v, its bytes build %v", id, current, want)
	}
	for _, child := range children {
		if err := t.checkOffsets(child, depth+1); err != nil {
			return err
		}
	}
	return nil
}
