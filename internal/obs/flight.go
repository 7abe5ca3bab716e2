package obs

// FlightDump is one flight-recorder capture: the anomaly that triggered it
// plus the last window of stage spans and every ledger chain active in that
// window — the evidence a post-mortem needs, frozen at the moment the
// anomaly was observed instead of reconstructed after the fact.
type FlightDump struct {
	// Reason names the trigger: "governor-demotion", "shed",
	// "over-budget-epoch" or "ledger-violation".
	Reason string `json:"reason"`
	// Epoch and Now locate the trigger on the logical clock.
	Epoch int     `json:"epoch"`
	Now   float64 `json:"now"`
	// Spans holds the trailing window of epoch span sets, oldest first;
	// Tasks the ledger chains with activity inside that window.
	Spans []EpochSpans  `json:"spans"`
	Tasks []TaskHistory `json:"tasks"`
}

// NewFlightRing builds a ring retaining the n most recent flight dumps
// (n ≥ 1).
func NewFlightRing(n int) *Ring[FlightDump] { return NewRing[FlightDump](n) }
