package timing

import "repro/internal/sparse"

// SELLPriced returns the SELL slots and slices ModelOracle prices a at.
func SELLPriced(a *sparse.CSR) (slots, slices int) {
	s := statsOf(a)
	return s.sellSlots, s.sellSlices
}
