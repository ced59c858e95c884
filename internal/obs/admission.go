package obs

// FieldAdmission is one served field's admission accounting in a snapshot.
type FieldAdmission struct {
	Field string `json:"field"`
	// Admitted counts requests admitted on the field's own budget, Borrowed
	// the ones admitted on an overflow token, Shed the 429 refusals, and
	// Degraded the aggregate requests answered approximately past the budget.
	Admitted int64 `json:"admitted"`
	Borrowed int64 `json:"borrowed"`
	Shed     int64 `json:"shed_429"`
	Degraded int64 `json:"degraded,omitempty"`
	// BudgetInUse is the field's budget occupancy at snapshot time.
	BudgetInUse int64 `json:"budget_in_use"`
}

// AdmissionSnapshot is a point-in-time copy of the serving tier's admission
// accounting, and through its tags the "admission" section of /metrics. obs
// only fixes the shape: the live state is the serving tier's gates, which
// count their own outcomes and whose token occupancy is the gauge. The model:
// each field owns FieldBudget tokens and borrows from the shared Overflow pool
// before shedding 429, so one hot field saturates at most its budget plus the
// overflow while cold fields keep their own tokens; cross-field requests
// (/v1/and) draw from the overflow pool directly.
type AdmissionSnapshot struct {
	// FieldBudget and Overflow echo the configured token pools.
	FieldBudget int64 `json:"field_budget"`
	Overflow    int64 `json:"overflow"`
	// Fields carries the per-field rows in name order.
	Fields []FieldAdmission `json:"fields,omitempty"`
	// OverflowInUse is the overflow pool's occupancy (tokens lent to fields
	// plus cross-field requests); SharedAdmitted and SharedShed count
	// cross-field admissions and refusals; DrainRefused counts 503s issued
	// while draining.
	OverflowInUse  int64 `json:"overflow_in_use"`
	SharedAdmitted int64 `json:"shared_admitted"`
	SharedShed     int64 `json:"shared_shed_429"`
	DrainRefused   int64 `json:"drain_refused_503"`
}
