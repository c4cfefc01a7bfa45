// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the PrIDE simulation stack.
//
// The paper's threat model (Section II-A) assumes the attacker cannot read
// the seed of the in-DRAM random number generator, so for *security analysis*
// the sampler is modelled as an ideal Bernoulli source. For *simulation* we
// need reproducibility: every experiment takes an explicit 64-bit seed and
// derives independent streams with SplitMix64, so that two runs with the same
// seed produce bit-identical results regardless of evaluation order.
package rng

import (
	"math"
	"math/bits"
)

// Source is the minimal interface the simulators need: a stream of uniform
// 64-bit values plus derived helpers. It deliberately mirrors a subset of
// math/rand so callers can swap implementations, but every implementation in
// this package is allocation-free and inlineable.
type Source interface {
	// Uint64 returns the next 64 uniformly distributed bits.
	Uint64() uint64
}

// SplitMix64 is a tiny, statistically strong generator that is primarily used
// for seeding other generators (its output function is a bijection, so
// distinct seeds give distinct streams). See Steele et al., OOPSLA 2014.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 advances the state and returns the next value.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// XorShift64Star is the workhorse generator for the Monte-Carlo engines:
// one xor-shift round plus a multiplication, passing BigCrush on the high
// 32 bits. Period 2^64-1; the all-zero state is forbidden and remapped.
type XorShift64Star struct {
	state uint64
}

// NewXorShift64Star returns a generator seeded via SplitMix64 so that
// low-entropy seeds (0, 1, 2, ...) still yield well-mixed states.
func NewXorShift64Star(seed uint64) *XorShift64Star {
	sm := NewSplitMix64(seed)
	st := sm.Uint64()
	if st == 0 {
		st = 0x9E3779B97F4A7C15 // any nonzero constant
	}
	return &XorShift64Star{state: st}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (x *XorShift64Star) Uint64() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545F4914F6CDD1D
}

// BernoulliT is Stream.BernoulliT drawn straight from the generator: the
// same decision from the same single draw. A hot loop that holds the
// generator in a local (copy it in, draw, copy it back) keeps its state in
// a register instead of reloading it through a Stream on every draw.
func (x *XorShift64Star) BernoulliT(t Threshold) bool {
	return t.fires(x.Uint64())
}

// Intn is Stream.Intn drawn straight from the generator: the same value
// from the same draws.
func (x *XorShift64Star) Intn(n int) int {
	bound := intnBound(n)
	for {
		if v, ok := lemire(x.Uint64(), bound); ok {
			return v
		}
	}
}

// Stream wraps a Source with convenience samplers. The zero value is not
// usable; construct with NewStream.
type Stream struct {
	src Source
	// xs caches the concrete generator when src is a *XorShift64Star so the
	// hot samplers can draw through a direct (inlineable) call instead of
	// interface dispatch. Purely an optimization: the draw sequence is
	// identical either way.
	xs *XorShift64Star
}

// NewStream returns a Stream drawing from src.
func NewStream(src Source) *Stream {
	s := &Stream{src: src}
	if x, ok := src.(*XorShift64Star); ok {
		s.xs = x
	}
	return s
}

// New returns a Stream backed by a fresh XorShift64Star with the given seed.
func New(seed uint64) *Stream {
	return NewStream(NewXorShift64Star(seed))
}

// next returns the next raw 64-bit draw, devirtualized when the backing
// source is the workhorse XorShift64Star.
func (s *Stream) next() uint64 {
	if x := s.xs; x != nil {
		return x.Uint64()
	}
	return s.src.Uint64()
}

// Uint64 returns the next raw 64-bit value.
func (s *Stream) Uint64() uint64 { return s.next() }

// Float64 returns a uniform float64 in [0,1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// FirstT runs up to n BernoulliT(t) trials and stops at the first success:
// it returns the success's index in [0, n), or n when all n trials fail.
// It is the exact counterpart of SkipT: where SkipT samples the gap from
// one draw, FirstT consumes the very draws n BernoulliT calls would — one
// per trial up to and including the success (i+1 draws), or n when none
// fires — and reaches the same decisions, so a caller can swap a per-event
// BernoulliT loop for FirstT without moving its stream. A stream over the
// workhorse generator runs the loop on a local copy of its state; any
// other source keeps the interface path. n must be >= 0.
func (s *Stream) FirstT(t Threshold, n int) int {
	if n < 0 {
		panic("rng: FirstT called with n < 0")
	}
	if x := s.xs; x != nil {
		g := *x
		for i := 0; i < n; i++ {
			if g.BernoulliT(t) {
				*x = g
				return i
			}
		}
		*x = g
		return n
	}
	for i := 0; i < n; i++ {
		if t.fires(s.src.Uint64()) {
			return i
		}
	}
	return n
}

// bernoulliBits is the precision of Bernoulli sampling: draws and thresholds
// live on the integer lattice {0, ..., 2^53}, matching Float64's 53-bit
// mantissa so the integer compare is bit-identical to `Float64() < p`.
const bernoulliBits = 53

// Threshold is a precomputed integer acceptance threshold for Bernoulli
// sampling: a draw u (53 high bits of a raw Uint64) fires iff u < t.
// Precompute it once per configuration with NewThreshold and sample with
// Stream.BernoulliT; the per-event cost is then one raw draw, a shift, and
// an integer compare — no float conversion or division.
type Threshold uint64

// NewThreshold returns the acceptance threshold equivalent to probability p.
// Out-of-range probabilities saturate: p <= 0 (or NaN) never fires, p >= 1
// always fires.
//
// For p in (0,1) the threshold is ceil(p * 2^53), which makes
// BernoulliT(NewThreshold(p)) return exactly the same decisions as the
// historical float compare `Float64() < p` on every draw: p*2^53 is computed
// exactly (scaling by a power of two only shifts the exponent), and for an
// exact real x and integer u, u < x iff u < ceil(x).
func NewThreshold(p float64) Threshold {
	if !(p > 0) { // also catches NaN
		return 0
	}
	if p >= 1 {
		return 1 << bernoulliBits
	}
	return Threshold(math.Ceil(p * (1 << bernoulliBits)))
}

// Prob returns the exact probability with which the threshold fires.
func (t Threshold) Prob() float64 { return float64(t) / (1 << bernoulliBits) }

// BernoulliT returns true with the probability encoded by t, consuming
// exactly one raw draw. This is the allocation-free hot path used by the
// per-activation loops; precompute t with NewThreshold.
func (s *Stream) BernoulliT(t Threshold) bool {
	return t.fires(s.next())
}

// fires reports whether the raw draw v falls under the threshold: its high
// 53 bits, the Bernoulli lattice, compared against t.
func (t Threshold) fires(v uint64) bool {
	return v>>(64-bernoulliBits) < uint64(t)
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// saturate (p <= 0 never fires, p >= 1 always fires), matching how a
// hardware comparator against a fixed threshold behaves.
//
// Draw-count contract: Bernoulli consumes exactly one raw draw from the
// underlying source for every call, including saturated probabilities. This
// keeps streams aligned across configuration sweeps — two runs that differ
// only in p see the same downstream draw sequence. (Historically p <= 0 and
// p >= 1 returned without drawing, silently desynchronizing such sweeps.)
func (s *Stream) Bernoulli(p float64) bool {
	return s.BernoulliT(NewThreshold(p))
}

// SkipNever is the Skip sampler's "no event ever" sentinel, returned when
// the threshold can never fire (p <= 0). It is larger than any practical
// simulation budget, so callers that clamp the returned skip against their
// remaining ACT budget need no special casing.
const SkipNever = math.MaxInt

// Skip is a precomputed geometric skip-ahead sampler for the event-driven
// engines: where the exact engines draw one Bernoulli(t) per activation and
// act on the rare success, SkipT draws ONCE and returns how many consecutive
// failures precede the next success. Sampling the gap directly turns
// O(ACTs) non-event iterations into O(events) work while simulating the
// same process: a sequence of i.i.d. Bernoulli(t) trials has geometric
// inter-arrival gaps, so replacing the per-trial draws with SkipT leaves
// every observable distribution unchanged (the raw draw SEQUENCE differs —
// one draw per event instead of one per trial — which is why the event
// engines are validated statistically rather than bit-for-bit).
//
// Precompute once per configuration with NewSkip; the per-event cost is one
// raw draw, one polynomial log, and one multiply.
type Skip struct {
	t Threshold
	// invLnQ is 1/ln(1-p), the inverse-CDF scale factor (negative for
	// p in (0,1); unused for the saturated thresholds).
	invLnQ float64
	// boundary is the exclusion band around integer values of the scaled
	// log within which the cheap polynomial log cannot be trusted to floor
	// correctly (fastLogErr amplified by the scale factor); draws landing
	// inside it recompute with math.Log. A boundary >= 0.5 degenerates to
	// the math.Log path on every draw.
	boundary float64
}

// NewSkip returns the skip sampler equivalent to repeated BernoulliT(t)
// draws. Saturated thresholds behave like BernoulliT: t for p >= 1 yields
// zero-length skips (every trial fires), t for p <= 0 yields SkipNever
// (no trial ever fires).
func NewSkip(t Threshold) Skip {
	s := Skip{t: t}
	if p := t.Prob(); p > 0 && p < 1 {
		s.invLnQ = 1 / math.Log1p(-p)
		s.boundary = fastLogErr * -s.invLnQ
	}
	return s
}

// Prob returns the per-trial success probability the sampler encodes.
func (sk Skip) Prob() float64 { return sk.t.Prob() }

// SkipT returns the number of Bernoulli failures before the next success:
// the gap to skip before the next event. It is distributed Geometric(p) on
// {0, 1, 2, ...} with p = t.Prob(), computed by inverse-CDF from a single
// uniform draw on the same 53-bit lattice as BernoulliT.
//
// Draw-count contract: SkipT consumes exactly one raw draw from the
// underlying source for every call, including the saturated thresholds
// (p >= 1 returns 0, p <= 0 returns SkipNever). This mirrors BernoulliT's
// one-draw-per-call contract so configuration sweeps over p keep their
// streams aligned.
func (s *Stream) SkipT(sk Skip) int {
	u := s.next() >> 11
	switch {
	case sk.t >= 1<<bernoulliBits:
		return 0
	case sk.t == 0:
		return SkipNever
	}
	// v = 1-U in (0, 1]: u is uniform on {0, ..., 2^53-1}, so 2^53-u never
	// underflows to zero and the log argument stays finite.
	v := float64(uint64(1)<<bernoulliBits-u) * (1.0 / (1 << bernoulliBits))
	// Fast path: floor(fastLog(v) * invLnQ) equals the math.Log result
	// whenever the scaled value sits further than sk.boundary from an
	// integer — fastLog's absolute error (< fastLogErr) scaled by |invLnQ|
	// cannot move it across the floor. Draws inside the band (and scaled
	// values too large for unit float spacing) fall through to math.Log,
	// keeping SkipT's outputs bit-identical to the plain formula on every
	// draw; only their cost differs.
	if y := fastLog(v) * sk.invLnQ; y < 1<<40 {
		f := math.Floor(y)
		if y-f >= sk.boundary && f+1-y >= sk.boundary {
			return int(f)
		}
	}
	k := math.Log(v) * sk.invLnQ
	// Guard the float->int conversion: for p at the lattice floor (2^-53)
	// the largest achievable k is ~2^58.2, representable in int64, but
	// clamp anyway so a narrower int or a precision change cannot
	// overflow silently.
	if k >= SkipNever {
		return SkipNever
	}
	return int(k)
}

// fastLogErr bounds fastLog's absolute error against math.Log. The residual
// series truncates after the r^4 term; with |r| <= 2^-7 the first dropped
// term contributes under 6e-12, the tabulated ln(m0) and 1/m0 are correctly
// rounded, and the few remaining float roundings (the residual multiply,
// four polynomial steps, the e*ln2 recombination with |e| <= 53) stay below
// 1e-14 combined. 1e-8 leaves over three orders of magnitude of slack.
const fastLogErr = 1e-8

// fastLog's range reduction tables: entry i covers mantissas in
// [1+i/128, 1+(i+1)/128), storing ln(m0) and 1/m0 for the interval base m0.
// 2 KiB total, resident in L1 under the event engines' hot loops.
var (
	fastLogLn  [128]float64
	fastLogInv [128]float64
)

func init() {
	for i := range fastLogLn {
		m0 := 1 + float64(i)/128
		fastLogLn[i] = math.Log(m0)
		fastLogInv[i] = 1 / m0
	}
}

// fastLog is a cheap, division-free math.Log for the SkipT hot path: valid
// for finite normal v in (0, 1], absolute error < fastLogErr. It decomposes
// v into 2^e * m0 * (1+r) with m0 tabulated from the mantissa's top 7 bits
// (so r = m/m0 - 1 is one multiply) and evaluates ln(1+r) by a short
// alternating series.
func fastLog(v float64) float64 {
	bits := math.Float64bits(v)
	e := int(bits>>52) - 1023
	i := (bits >> 45) & 0x7F
	m := math.Float64frombits(bits&(1<<52-1) | 1023<<52)
	r := m*fastLogInv[i] - 1
	lnr := r * (1 + r*(-0.5+r*(1.0/3+r*(-0.25))))
	return float64(e)*math.Ln2 + fastLogLn[i] + lnr
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0, mirroring
// math/rand, because a zero-sized choice is always a caller bug.
func (s *Stream) Intn(n int) int {
	if x := s.xs; x != nil {
		return x.Intn(n)
	}
	bound := intnBound(n)
	for {
		if v, ok := lemire(s.src.Uint64(), bound); ok {
			return v
		}
	}
}

// intnBound checks an Intn range and returns it as the sampling bound.
func intnBound(n int) uint64 {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return uint64(n)
}

// lemire is one step of Lemire's nearly-divisionless bounded sampling: it
// maps the raw draw v to [0, bound), reporting false when v falls in the
// rejection zone and Intn must draw again.
func lemire(v, bound uint64) (int, bool) {
	hi, lo := mul128(v, bound)
	return int(hi), lo >= bound || lo >= (-bound)%bound
}

// Perm returns a pseudo-random permutation of [0,n) using Fisher-Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of failures before the first success (support
// {0,1,2,...}). Used to fast-forward sparse insertion events in large
// Monte-Carlo runs. Panics if p is outside (0,1].
func (s *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	// Inverse CDF; u in [0,1) keeps the log argument in (0,1].
	return int(math.Log1p(-u) / math.Log1p(-p))
}

// Fork derives an independent Stream from this one. The derived stream's
// seed is drawn from the parent, so a single experiment seed fans out into
// arbitrarily many decorrelated streams deterministically.
//
// Fork is inherently sequential: the i-th forked stream depends on the
// parent's state after i-1 forks. Parallel trial runners that hand trial i
// to an arbitrary worker need random access instead — use DeriveSeed or
// Derived for that.
func (s *Stream) Fork() *Stream {
	return New(s.next())
}

// splitMixGamma is SplitMix64's Weyl-sequence increment (the golden-ratio
// constant of Steele et al., OOPSLA 2014).
const splitMixGamma = 0x9E3779B97F4A7C15

// DeriveSeed returns the seed of sub-stream i of the experiment seed base.
// It is the (i+1)-th output of SplitMix64(base), computed in O(1) by jumping
// the Weyl sequence directly to index i, so trial i receives the same seed
// no matter which worker computes it or in which order trials run.
//
// SplitMix64's output function is a bijection over distinct Weyl states, so
// for a fixed base every index yields a distinct seed, and the XorShift64Star
// streams seeded from them are decorrelated (each seed lands the generator at
// an unrelated point of its single 2^64-1 cycle; prefixes of practical length
// from adjacent indices do not overlap).
func DeriveSeed(base, i uint64) uint64 {
	z := base + (i+1)*splitMixGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derived returns a fresh Stream for sub-stream i of the experiment seed
// base: Derived(base, i) == New(DeriveSeed(base, i)). It is the random-access
// counterpart of Fork for sharded, order-independent trial execution.
func Derived(base, i uint64) *Stream {
	return New(DeriveSeed(base, i))
}

// mul128 returns the 128-bit product of a and b as (hi, lo): bits.Mul64,
// which the compiler lowers to a single widening multiply.
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
