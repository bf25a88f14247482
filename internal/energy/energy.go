// Package energy implements the paper's parametric cost models: the
// per-device energy consumption model of Eq. (1)–(2) and the parameter
// count model ζ(θ) of Eq. (3).
//
// The paper's own optimization runs against this analytic model (the
// coefficients come from profiling, not live measurement), so
// implementing the equations exactly reproduces the optimization
// surface that Phase 1 searches.
package energy

// Arch captures the architecture constants of the reference backbone
// used by the ζ parameter-count model: H (parameters of all attention
// heads per layer), ξh (hidden dimension), and ξf (feed-forward
// dimension).
type Arch struct {
	HeadParams int // H: attention parameters per layer
	HiddenDim  int // ξh
	FFDim      int // ξf
	NumHeads   int
	MaxDepth   int
}

// ViTBase returns the ViT-B/16 constants: 12 layers, 12 heads, hidden
// 768, feed-forward 3072 — ζ(1, 12) ≈ 85 M parameters, matching the
// published ViT-B size.
func ViTBase() Arch {
	return Arch{
		HeadParams: 4 * 768 * 768, // Wq,Wk,Wv,Wo
		HiddenDim:  768,
		FFDim:      3072,
		NumHeads:   12,
		MaxDepth:   12,
	}
}

// ParamCount returns ζ(θ) = d·w·(H + 2·ξh·ξf), the paper's parameter
// count for a backbone with width factor w and depth d (Eq. 3).
func (a Arch) ParamCount(w float64, d int) float64 {
	perLayer := float64(a.HeadParams + 2*a.HiddenDim*a.FFDim)
	return float64(d) * w * perLayer
}

// Profile models one device's power and latency response to backbone
// shape per Eq. (2):
//
//	P(w,d) = (G + ΔG·w·d) + p·Gβ
//	T(w,d) = L + ΔL·w·d
//	E(θ)  = k · P(w,d) · T(w,d)            (Eq. 1)
//
// with ΔG, Gβ ∝ G and ΔL ∝ L.
type Profile struct {
	GPU            float64 // G: base GPU power draw (W)
	PowerPerUnit   float64 // ΔG: extra power per unit of w·d (W)
	BatchPower     float64 // Gβ: per-batch GPU energy coefficient (W)
	Patches        float64 // p: number of patches
	BaseLatency    float64 // L: fixed per-epoch latency (s)
	LatencyPerUnit float64 // ΔL: extra latency per unit of w·d (s)
	Epochs         int     // k
}

// NewProfile derives a profile from a device's GPU capacity G, base
// latency L, and patch count, using the paper's proportionality
// assumptions ΔG ∝ G, Gβ ∝ G, ΔL ∝ L.
func NewProfile(gpu, baseLatency, patches float64, epochs int) Profile {
	return Profile{
		GPU:            gpu,
		PowerPerUnit:   0.08 * gpu,
		BatchPower:     0.002 * gpu,
		Patches:        patches,
		BaseLatency:    baseLatency,
		LatencyPerUnit: 0.35 * baseLatency,
		Epochs:         epochs,
	}
}

// Power returns P(w, d) in watts.
func (p Profile) Power(w float64, d int) float64 {
	return p.GPU + p.PowerPerUnit*w*float64(d) + p.Patches*p.BatchPower
}

// Latency returns T(w, d) in seconds per epoch.
func (p Profile) Latency(w float64, d int) float64 {
	return p.BaseLatency + p.LatencyPerUnit*w*float64(d)
}

// Energy returns E(θ) = k·P·T in joules for a backbone of width w and
// depth d (Eq. 1).
func (p Profile) Energy(w float64, d int) float64 {
	return float64(p.Epochs) * p.Power(w, d) * p.Latency(w, d)
}
