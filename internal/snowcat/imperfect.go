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

// effectiveTiles fills ev.effTile with each rank's average tile extent
// under the tiling: the rank's full shape spread over its outer
// iterations, capped by the inner tile and floored at 1. The tensors'
// effective footprints are the MeanFootprint of these tiles.
func (ev *Evaluator) effectiveTiles(splits []shape.Split) {
	for i, s := range splits {
		eff := float64(ev.rankShape[i]) / float64(s.Outer)
		if eff > float64(s.Inner) {
			eff = float64(s.Inner)
		}
		if eff < 1 {
			eff = 1
		}
		ev.effTile[i] = eff
	}
}
