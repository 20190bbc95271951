package telemetry

import (
	"encoding/binary"
	"math/bits"
)

// bloom is a fixed-size bloom filter over keys. Runs build one at flush
// time and persist it in the run footer: point reads consult it before
// touching any data block, which is where the read-amplification win of the
// LSM shape comes from (most runs do not hold the key).
//
// A key is hashed once (hashKey) and the k probe positions come from that
// one value by double hashing (Kirsch–Mitzenmacher); Store.Get hashes before
// it walks the runs, so a point read pays for one hash however many filters
// it consults.
type bloom struct {
	bits []uint64
	k    uint32
}

// bloomBitsPerKey=10 with k=7 gives a ~0.8% false-positive rate — the
// standard LSM operating point (RocksDB's default is the same 10 bits).
const (
	bloomBitsPerKey = 10
	bloomK          = 7
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	words := (n*bloomBitsPerKey + 63) / 64
	return &bloom{bits: make([]uint64, words), k: bloomK}
}

// hashKey mixes a key's fields into 64 bits (two rounds of the murmur3
// finalizer). The value is part of the run format: filters on disk hold the
// positions it led to.
func hashKey(k Key) uint64 {
	h := k.TMs ^ uint64(k.Kind)<<48
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= uint64(k.Vehicle)<<32 | uint64(k.Seq)
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// add inserts a key by its hash. Each probe value is mapped onto the
// filter's m bits by the high word of a 64x64 multiply: one MUL where h % m
// was a divide.
func (f *bloom) add(h uint64) {
	m, step := uint64(len(f.bits))*64, bits.RotateLeft64(h, 32)
	for i := uint32(0); i < f.k; i++ {
		pos, _ := bits.Mul64(h, m)
		f.bits[pos/64] |= 1 << (pos % 64)
		h += step
	}
}

// test reports whether the key hashing to h may be present (false negatives
// never).
func (f *bloom) test(h uint64) bool {
	m, step := uint64(len(f.bits))*64, bits.RotateLeft64(h, 32)
	for i := uint32(0); i < f.k; i++ {
		pos, _ := bits.Mul64(h, m)
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
		h += step
	}
	return true
}

// appendTo renders the filter deterministically (little-endian words) onto b.
func (f *bloom) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, f.k)
	for _, w := range f.bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// unmarshalBloom reads a rendered filter.
func unmarshalBloom(b []byte) *bloom {
	if len(b) < 4 || (len(b)-4)%8 != 0 {
		return nil
	}
	f := &bloom{k: binary.LittleEndian.Uint32(b[0:4])}
	n := (len(b) - 4) / 8
	f.bits = make([]uint64, n)
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(b[4+8*i:])
	}
	if f.k == 0 || f.k > 64 || n == 0 {
		return nil
	}
	return f
}
