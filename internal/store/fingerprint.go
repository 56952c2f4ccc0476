package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint derives the deterministic content key of a cell from its
// identifying parts. Each part is canonicalised through encoding/json
// (struct fields in declaration order, map keys sorted) and fed to SHA-256
// with a length prefix, so no two distinct part sequences can collide by
// concatenation. Parts must be JSON-marshalable; anything else is a
// programmer error and panics.
func Fingerprint(parts ...any) string {
	encoded := make([][]byte, len(parts))
	for i, p := range parts {
		encoded[i] = EncodePart(p)
	}
	return FingerprintEncoded(encoded...)
}

// EncodePart encodes one fingerprint part as Fingerprint does. A caller
// that fingerprints many part lists sharing parts encodes each shared part
// once and passes the bytes to FingerprintEncoded. It panics where
// Fingerprint would.
func EncodePart(p any) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("store: fingerprint part %T: %v", p, err))
	}
	return b
}

// FingerprintEncoded is Fingerprint over parts already encoded by
// EncodePart: FingerprintEncoded(EncodePart(a), EncodePart(b)) equals
// Fingerprint(a, b).
func FingerprintEncoded(parts ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, b := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	var sum [sha256.Size]byte
	var key [32]byte
	hex.Encode(key[:], h.Sum(sum[:0])[:16])
	return string(key[:])
}
