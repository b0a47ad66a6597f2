package btree

// Reencode passes a node body through the reference decoder and encoder
// (reference_test.go) for the external format test.
func Reencode(body []byte) ([]byte, error) {
	n, err := decodeNode(body)
	if err != nil {
		return nil, err
	}
	return encodeNode(n, len(body)), nil
}
