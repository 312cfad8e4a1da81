package partition

// Move is one key that must migrate because its owner changed between two
// rings.
type Move struct {
	Key  string
	From string // "" when From had no ring (bootstrap)
	To   string
}

// PlanMoves diffs two rings over an explicit key population and returns
// the minimal move list: exactly the keys whose owner differs. Everything
// else stays put — the consistent-hash property the determinism tests and
// E33 measure. old may be nil (bootstrap: every key "moves" to its first
// owner with From "").
func PlanMoves(old, new *Ring, keys []string) []Move {
	var out []Move
	for _, k := range keys {
		to := new.Owner(k)
		from := ""
		if old != nil {
			from = old.Owner(k)
		}
		if from != to {
			out = append(out, Move{Key: k, From: from, To: to})
		}
	}
	return out
}

// MovedFraction estimates the fraction of the key space whose owner
// differs between two rings, over sample deterministic synthetic keys.
// For a join of one server into N the expected value is ≈ 1/(N+1); the
// E33 acceptance bound is ≤ 2/N.
func MovedFraction(old, new *Ring, sample int) float64 {
	if sample <= 0 || old == nil || new == nil ||
		len(old.points) == 0 || len(new.points) == 0 {
		return 0
	}
	moved := 0
	h := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < sample; i++ {
		h = splitmix64(h)
		a := old.members[old.points[old.search(h)].member]
		b := new.members[new.points[new.search(h)].member]
		if a != b {
			moved++
		}
	}
	return float64(moved) / float64(sample)
}
