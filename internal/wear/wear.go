// Package wear models NAND Flash cell wear-out, following the
// exponential analytical model of paper section 4.1.3: cell lifetime
// W = 10^(C1*tox) with normally distributed oxide thickness, calibrated
// so the first cell in a page fails at 100,000 write/erase cycles (the
// SLC specification point; MLC cells wear an order of magnitude faster,
// Table 1).
//
// Two views are offered. The analytic view (MaxTolerableCycles)
// reproduces Figure 6(b): the maximum write/erase cycles a page
// tolerates as a function of ECC strength, for several magnitudes of
// spatial (page-to-page) oxide variation. The stochastic view
// (PageWear) gives the per-page failed-bit trajectory the disk-cache
// simulator and the lifetime experiment (Figure 12) consume.
//
// Calibration note: the per-cell log10-lifetime spread is an effective
// model constant fitted to the two anchors the paper publishes — first
// failure at 1e5 cycles and the Figure 6(b) tolerable-cycle range
// (about 7e6 cycles at t=10 with no spatial variation). The paper's
// own constants live in the first author's PhD thesis [15], which is
// not redistributable; the fitted model preserves the published curve.
package wear

import (
	"fmt"
	"math"

	"flashdc/internal/sim"
)

// CellsPerPage is the number of memory cells protected together: 2KB
// of data plus the 64-byte spare area, one bit per cell in SLC mode.
const CellsPerPage = (2048 + 64) * 8

// Endurance specification points from Table 1 (write/erase cycles at
// which the first cell of a page is expected to fail).
const (
	EnduranceSLC = 100_000
	EnduranceMLC = 10_000
)

// DataRetentionYears is the ITRS-quoted retention figure (Table 1).
const DataRetentionYears = 10

// Mode distinguishes the two cell densities the dual-mode Flash
// supports (Figure 1(a)).
type Mode uint8

const (
	// SLC stores one bit per cell: faster, 10x more durable.
	SLC Mode = iota
	// MLC stores two bits per cell: denser, slower, less durable.
	MLC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Model holds the calibrated exponential wear-out model.
type Model struct {
	// SigmaDecades is the per-cell standard deviation of log10
	// lifetime, the product C1*mean(tox)*sigma_rel in the paper's
	// notation.
	SigmaDecades float64
	// MuDecades is the per-cell mean of log10 lifetime in SLC mode.
	MuDecades float64
	// ClusterPenalty scales how strongly spatial (page-level) oxide
	// variation erodes the benefit of stronger ECC; the paper
	// observes bad cells cluster, so pages stop being recoverable
	// (section 4.1.3).
	ClusterPenalty float64
}

// firstFailQuantile is the per-cell probability corresponding to "the
// first cell of the page has failed": 1/CellsPerPage.
var firstFailQuantile = 1.0 / float64(CellsPerPage)

// NewModel returns the calibrated model: first page failure at 1e5
// cycles (SLC) and roughly 7e6 tolerable cycles at ECC strength 10
// with no spatial variation, matching Figure 6(b).
func NewModel() *Model {
	// Fit sigma from the two anchors, then mu from the first anchor.
	z0 := NormInv(firstFailQuantile)
	z10 := NormInv(11 * firstFailQuantile)
	sigma := (math.Log10(7e6) - math.Log10(EnduranceSLC)) / (z10 - z0)
	mu := math.Log10(EnduranceSLC) - z0*sigma
	return &Model{
		SigmaDecades:   sigma,
		MuDecades:      mu,
		ClusterPenalty: 2.0,
	}
}

// modeShift returns the log10-cycles penalty of a density mode: MLC
// cells wear out an order of magnitude sooner (Table 1).
func modeShift(m Mode) float64 {
	if m == MLC {
		return 1
	}
	return 0
}

// CellFailProb returns the probability that a single cell has failed
// after the given number of write/erase cycles in the given mode.
func (md *Model) CellFailProb(cycles float64, mode Mode) float64 {
	if cycles <= 0 {
		return 0
	}
	z := (math.Log10(cycles) - (md.MuDecades - modeShift(mode))) / md.SigmaDecades
	return NormCDF(z)
}

// MaxTolerableCycles reproduces Figure 6(b): the write/erase cycles at
// which a page with ECC strength t (t failed bits still correctable)
// stops being recoverable, for a device whose page-to-page oxide
// thickness spread has the given relative standard deviation
// (sigmaSpatial of 0, 0.05, 0.10, 0.20 in the figure).
//
// Strength t=0 means no correction: the page dies with its first cell,
// at the 1e5-cycle specification point regardless of spatial spread.
func (md *Model) MaxTolerableCycles(t int, sigmaSpatial float64, mode Mode) float64 {
	if t < 0 {
		panic("wear: negative ECC strength")
	}
	z0 := NormInv(firstFailQuantile)
	zt := NormInv(float64(t+1) * firstFailQuantile)
	benefit := (zt - z0) * md.SigmaDecades
	scale := 1 - md.ClusterPenalty*sigmaSpatial
	if scale < 0 {
		scale = 0
	}
	base := math.Log10(EnduranceSLC) - modeShift(mode)
	return math.Pow(10, base+benefit*scale)
}

// PageWear is the deterministic wear trajectory of one page: a sampled
// per-page quality offset shifts the whole failure CDF, so weaker pages
// develop bit errors sooner. Obtain instances from
// Model.SamplePageWear and evaluate them against the same Model; the
// page keeps no pointer to it, so a device's 8 bytes per page slot go
// to the slot's own state instead.
type PageWear struct {
	// muOffset is the sampled page-quality shift in decades
	// (negative = weak page).
	muOffset float64
}

// SamplePageWear samples a page from a device with the given spatial
// spread. Deterministic given the RNG state. The log-lifetime offset
// scale is chosen so that a 3-sigma weak page loses the same number of
// decades the analytic MaxTolerableCycles model attributes to spatial
// variation (the ClusterPenalty formulation), keeping the stochastic
// and analytic views of Figure 6(b) consistent. It returns a value so
// callers can embed the trajectory in their own structures (one per
// page slot) without a heap allocation per page.
func (md *Model) SamplePageWear(rng *sim.RNG, sigmaSpatial float64) PageWear {
	scale := sigmaSpatial * md.ClusterPenalty * md.SigmaDecades / 3
	offset := rng.NormFloat64() * scale
	// Clamp to 3 sigma so a single pathological sample cannot zero
	// out a page instantly; beyond-3-sigma pages are the factory bad
	// blocks real devices ship mapped out.
	limit := 3 * scale
	if offset > limit {
		offset = limit
	} else if offset < -limit {
		offset = -limit
	}
	return PageWear{muOffset: offset}
}

// FailedBits returns the number of stuck cells in this page of model
// md after cycles write/erase cycles in the given mode. Monotone in
// cycles.
func (w *PageWear) FailedBits(md *Model, cycles float64, mode Mode) int {
	if cycles <= 0 {
		return 0
	}
	mu := md.MuDecades + w.muOffset - modeShift(mode)
	z := (math.Log10(cycles) - mu) / md.SigmaDecades
	return int(float64(CellsPerPage) * NormCDF(z))
}

// CyclesUntilBits returns the write/erase cycle count at which the page
// of model md first shows more than bits failed cells in the given
// mode — the inverse of FailedBits, or +Inf when bits+1 reaches
// CellsPerPage. bits must be >= 0. The device uses it to estimate the
// erase count at which a page's cached failed-bit count goes stale,
// and confirms that estimate with FailedBits: the inverse is close,
// not exact in floating point.
func (w *PageWear) CyclesUntilBits(md *Model, bits int, mode Mode) float64 {
	if bits < 0 {
		panic("wear: negative bit budget")
	}
	q := float64(bits+1) / float64(CellsPerPage)
	if q >= 1 {
		return math.Inf(1)
	}
	mu := md.MuDecades + w.muOffset - modeShift(mode)
	return math.Pow(10, mu+NormInv(q)*md.SigmaDecades)
}

// NormCDF is the standard normal cumulative distribution function.
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormInv is the inverse standard normal CDF (quantile function),
// implemented with Acklam's rational approximation refined by one
// Halley step; absolute error is far below what the wear model needs.
func NormInv(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("wear: NormInv(%v) outside (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step against the true CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
