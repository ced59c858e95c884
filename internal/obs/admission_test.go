package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestAdmissionSnapshotJSON pins the "admission" section of /metrics as
// literal JSON — key order, the _429/_503 suffixes, degraded omitted at zero,
// fields omitted when empty — and checks the tags round-trip. The counters
// themselves live on the serving tier's gates and are asserted there, through
// Server.Admission().
func TestAdmissionSnapshotJSON(t *testing.T) {
	snap := AdmissionSnapshot{
		FieldBudget: 4, Overflow: 8,
		Fields: []FieldAdmission{
			{Field: "cold", Admitted: 1, BudgetInUse: 1},
			{Field: "hot", Admitted: 3, Borrowed: 2, Shed: 5, Degraded: 7, BudgetInUse: 2},
		},
		OverflowInUse: 3, SharedAdmitted: 2, SharedShed: 1, DrainRefused: 1,
	}
	for _, tc := range []struct {
		snap AdmissionSnapshot
		want string
	}{
		{snap, `{"field_budget":4,"overflow":8,"fields":[{"field":"cold","admitted":1,"borrowed":0,"shed_429":0,"budget_in_use":1},{"field":"hot","admitted":3,"borrowed":2,"shed_429":5,"degraded":7,"budget_in_use":2}],"overflow_in_use":3,"shared_admitted":2,"shared_shed_429":1,"drain_refused_503":1}`},
		{AdmissionSnapshot{}, `{"field_budget":0,"overflow":0,"overflow_in_use":0,"shared_admitted":0,"shared_shed_429":0,"drain_refused_503":0}`},
	} {
		got, err := json.Marshal(tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("admission snapshot marshals to\n%s\nwant\n%s", got, tc.want)
		}
		var back AdmissionSnapshot
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, tc.snap) {
			t.Errorf("round trip = %+v (%v), want %+v", back, err, tc.snap)
		}
	}
}
