package checkpoint

// Retained reports how many streamed units the writer holds for the
// memory tier.
func (w *SweepWriter) Retained() int { return len(w.units) }
