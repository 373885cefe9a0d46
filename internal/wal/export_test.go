package wal

import "repro/internal/types"

// Frame exposes the record framing to package-external tests, so fuzzers
// and crash tests can build adversarial segment and snapshot files that
// pass the frame check and exercise the decoders behind it.
var Frame = frame

// EncodeDecisionSnapshot runs the decision journal's snapshot encoder
// over m, for the golden test and the encode benchmark.
func EncodeDecisionSnapshot(m map[string]types.Decision) []byte {
	return (&decisionCodec{m: m}).EncodeSnapshot()
}
