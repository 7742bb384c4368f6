package telemetry

// Sum returns the sum of observations (in raw units, unscaled).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
