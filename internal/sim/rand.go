package sim

// Rand is a small deterministic pseudo-random number generator
// (splitmix64). The simulator cannot use math/rand's global state because
// reproducibility of every experiment is a design requirement; a tiny local
// generator also keeps the dependency surface at zero.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a pseudo-random duration in [lo, hi]. It panics when
// hi < lo.
func (r *Rand) Duration(lo, hi Time) Time {
	if hi < lo {
		panic("sim: Duration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + Time(r.Uint64()%span)
}

// Bool returns a pseudo-random boolean with probability p of being true.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator from this one. The child stream is
// decorrelated from the parent's subsequent output.
func (r *Rand) Fork() *Rand { return &Rand{state: r.Uint64() ^ 0xa0761d6478bd642f} }
