package online

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/monitor/window"
)

// GateConfig tunes the candidate evaluation gate.
type GateConfig struct {
	// HoldFrac is the fraction of the example buffer held out of retraining
	// and used to score candidate vs incumbent (default 0.25). The holdout is
	// split off before training, so the candidate never sees it.
	HoldFrac float64
	// Margin is how much holdout accuracy the candidate may give up relative
	// to the incumbent and still be promoted: promote iff
	// candidate >= incumbent - Margin (default 0.02). A negative margin
	// demands the candidate *beat* the incumbent by |Margin|; anything below
	// -1 is an impossible bar that force-rejects every candidate (the
	// rollback drill knob cmd/quantonline exposes as -gate-margin).
	Margin float64
}

func (c *GateConfig) applyDefaults() {
	if c.HoldFrac == 0 {
		c.HoldFrac = 0.25
	}
	if c.Margin == 0 {
		c.Margin = 0.02
	}
}

// GateResult records one gate evaluation (EvaluateShadowGate): challengers
// ranked against the champion on the labeled samples each was judged on.
// The continuous-learning loop asks it about one challenger, the retrained
// candidate, scored against the incumbent on the retrain holdout; the
// shadow evaluator asks it about up to N challengers scored on mirrored
// live traffic.
type GateResult struct {
	// CandidateAccuracy and IncumbentAccuracy are the top-ranked
	// challenger's and the champion's accuracy.
	CandidateAccuracy float64
	IncumbentAccuracy float64
	// Holdout is how many labeled samples the top-ranked challenger's score
	// rests on (the holdout size in the continuous-learning loop).
	Holdout int
	// Margin is the accuracy lead the top-ranked challenger needed over the
	// champion: promote iff challenger >= champion + Margin. The shadow gate
	// passes a positive margin, so a model earns a fleet-wide rollout rather
	// than being granted one for breaking even; the continuous-learning
	// loop passes -GateConfig.Margin, so a candidate may give up at most
	// GateConfig.Margin.
	Margin float64
	// Promote is the verdict.
	Promote bool
	// Winner names the challenger put up for promotion, "" when the
	// champion keeps its seat.
	Winner string
	// Scores is the per-challenger scoreboard in ranked order (top first).
	Scores []CandidateScore
}

// CandidateScore is one model's online score in an N-way gate evaluation:
// cumulative accuracy and mean cross-entropy over the live labeled samples
// it has been judged on. Cumulative totals (not a sliding ring) keep the
// score a permutation-invariant function of the labeled set, so concurrent
// mirror arrival order can never change a verdict.
type CandidateScore struct {
	Name     string  `json:"name"`
	Accuracy float64 `json:"accuracy"`
	// CE is the mean cross-entropy on the true labels (lower is better) —
	// the tie-breaker when accuracies are equal.
	CE      float64 `json:"ce"`
	Samples int     `json:"samples"`
}

// rankScore is the deterministic seeded tie-break of last resort: two
// challengers identical on accuracy and CE are ordered by the fnv64a hash of
// (seed, name), so every same-seed evaluation agrees on the winner without
// favoring registration order.
func rankScore(seed int64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// EvaluateShadowGate is the promotion gate: up to N challenger scores are
// ranked against the champion's, and at most one challenger — the winner —
// is put up for promotion. Ranking is accuracy (higher wins), then mean CE
// (lower wins), then the seeded hash, then name; the ranking is a pure
// function of (seed, scores), so same-seed replays of the same labeled
// stream emit identical verdicts.
//
// The winner is promoted only when it earned the seat: at least minSamples
// labeled samples, and never zero, behind both its own score and the
// champion's, and an accuracy lead of at least margin over the champion
// (a negative margin lets the winner trail by at most -margin). A margin
// above 1 is an impossible bar that force-rejects every challenger. With no
// challengers the champion trivially keeps its seat.
func EvaluateShadowGate(seed int64, champion CandidateScore, challengers []CandidateScore, margin float64, minSamples int) GateResult {
	g := GateResult{
		IncumbentAccuracy: champion.Accuracy,
		Margin:            margin,
	}
	if len(challengers) == 0 {
		return g
	}
	ranked := append([]CandidateScore(nil), challengers...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Accuracy != ranked[j].Accuracy {
			return ranked[i].Accuracy > ranked[j].Accuracy
		}
		if ranked[i].CE != ranked[j].CE {
			return ranked[i].CE < ranked[j].CE
		}
		hi, hj := rankScore(seed, ranked[i].Name), rankScore(seed, ranked[j].Name)
		if hi != hj {
			return hi < hj
		}
		return ranked[i].Name < ranked[j].Name
	})
	g.Scores = ranked
	top := ranked[0]
	g.CandidateAccuracy = top.Accuracy
	g.Holdout = top.Samples
	// A score resting on no labeled samples is no evidence, whatever
	// minSamples says.
	need := max(minSamples, 1)
	if top.Samples >= need && champion.Samples >= need &&
		top.Accuracy >= champion.Accuracy+margin {
		g.Winner = top.Name
		g.Promote = true
	}
	return g
}

// accuracyOn scores a framework on a raw (unscaled) dataset. The framework
// must be owned by the caller's goroutine (Predict is not goroutine-safe).
func accuracyOn(fw *core.Framework, ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	hits := 0
	for _, s := range ds.Samples {
		if class, _ := fw.Predict(window.Matrix(s.Vectors)); class == s.Label {
			hits++
		}
	}
	return float64(hits) / float64(ds.Len())
}

// holdoutGate is the continuous-learning loop's call of the gate, its N=1
// case: the freshly trained candidate is the one challenger, the incumbent
// is the champion, both are scored on a holdout neither trained on, and the
// candidate may trail the incumbent by at most margin.
func holdoutGate(candidate, incumbent *core.Framework, holdout *dataset.Dataset, margin float64) GateResult {
	n := holdout.Len()
	return EvaluateShadowGate(0,
		CandidateScore{Name: "incumbent", Accuracy: accuracyOn(incumbent, holdout), Samples: n},
		[]CandidateScore{{Name: "candidate", Accuracy: accuracyOn(candidate, holdout), Samples: n}},
		-margin, 1)
}
