package fleet

// RNG stream splitting (DESIGN.md §11). One fleet seed fans out into an
// unbounded family of independent streams — one per vehicle, one per
// region's world generator, one per region's demand process, one for the
// initial-charge spread — by mixing (seed, stream class, index) through a
// splitmix64-style finalizer. The derivation is a pure function of the
// triple, so stream k is the same whether the fleet has 10 vehicles or
// 10 000, and adding regions never perturbs vehicle streams.

type streamClass uint64

const (
	streamVehicle streamClass = iota + 1
	streamRegionWorld
	streamDemand
	streamInitialSoC
	streamModel
)

// splitSeed derives an independent child seed from (seed, class, index).
func splitSeed(seed int64, class streamClass, index int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(class)<<32+uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}
