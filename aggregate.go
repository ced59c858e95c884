package fielddb

// The approximate aggregate tier: ApproxAggregateContext answers "how many
// cells — and how much area — fall in this value interval" from a few
// dedicated summary pages, with a certified error bound, in O(1) page reads at
// any selectivity. When the certified bound exceeds the caller's tolerance the
// exact pipeline runs instead, so the answer is never silently worse than
// asked for. See DESIGN.md §5.11.

import (
	"fmt"
	"math"

	"fielddb/internal/core"
)

// AggregateResult is the outcome of an aggregate query over a value interval:
// matching cell count and planar area, either approximate with certified
// error bounds (Approx true) or exact through the regular pipeline (Fallback
// true, bounds zero).
type AggregateResult = core.AggregateResult

// DefaultApproxMaxErr is the aggregate error tolerance used when the call
// does not choose one (maxErr == 0): one percent of the field, measured on
// the matched-area fraction.
const DefaultApproxMaxErr = 0.01

// resolveMaxErr validates one call's tolerance argument: NaN and negative
// values are rejected with ErrBadTolerance, 0 selects DefaultApproxMaxErr,
// +Inf passes through (it accepts any certified bound — the serving tier's
// degraded mode).
func resolveMaxErr(maxErr float64) (float64, error) {
	if math.IsNaN(maxErr) || maxErr < 0 {
		return 0, fmt.Errorf("%w %g", ErrBadTolerance, maxErr)
	}
	if maxErr == 0 {
		return DefaultApproxMaxErr, nil
	}
	return maxErr, nil
}
