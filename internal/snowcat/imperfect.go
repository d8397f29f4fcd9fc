package snowcat

import (
	"repro/internal/mapping"
	"repro/internal/shape"
)

// EvaluateImperfectCompact evaluates a mapping whose splits may use
// imperfect factors (Inner*Outer >= shape, partial boundary tiles).
//
// The buffer requirement charges the full inner tile (the buffer must be
// sized for the largest resident tile). Access counts use the *effective*
// average tile extent shape/outer per rank, so the sum over all boundary
// and interior tiles is exact for identity projections and a tight
// rational approximation for strided/grouped ones. Per-tensor traffic is
// clamped from below by the tensor's size (every operand is touched at
// least once), keeping the bound sound.
func (ev *Evaluator) EvaluateImperfectCompact(m *mapping.Mapping) (bufBytes, accessBytes int64) {
	return ev.evaluate(Imperfect, m)
}

// effectiveFootprint computes the tensor's average per-transfer footprint
// using rational tile extents shape/outer.
func (ev *Evaluator) effectiveFootprint(t *compiledTensor, splits []shape.Split) float64 {
	fp := 1.0
	for i := range t.dims {
		d := &t.dims[i]
		var ext float64
		if d.groupDiv > 1 {
			ext = ev.effTile(d.ranks[0], splits) / float64(d.groupDiv)
			if ext < 1 {
				ext = 1
			}
		} else {
			ext = 1
			for j, r := range d.ranks {
				ext += float64(d.coeffs[j]) * (ev.effTile(r, splits) - 1)
			}
		}
		if max := float64(d.fullExtent); ext > max {
			ext = max
		}
		fp *= ext
	}
	return fp
}

// effTile returns the average tile extent of rank i under the tiling:
// the rank's full shape spread over its outer iterations, capped by the
// inner tile and floored at 1.
func (ev *Evaluator) effTile(i int, splits []shape.Split) float64 {
	s := splits[i]
	eff := float64(ev.rankShape[i]) / float64(s.Outer)
	if eff > float64(s.Inner) {
		eff = float64(s.Inner)
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}
