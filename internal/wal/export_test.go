package wal

import "repro/internal/types"

// EncodeRecord and DecodeRecord expose the node journal's payload codec
// to package-external tests, so they can build segment files record by
// record and read a journal's segments back.
var (
	EncodeRecord = encodePayload
	DecodeRecord = decodePayload
)

// EncodeNodeSnapshot runs the node journal's snapshot encoder over st,
// for the golden test.
func EncodeNodeSnapshot(st State) []byte {
	return (&protocolCodec{st: st}).EncodeSnapshot()
}

// EncodeDecisionSnapshot runs the decision journal's snapshot encoder
// over m, for the golden test and the encode benchmark.
func EncodeDecisionSnapshot(m map[string]types.Decision) []byte {
	return (&decisionCodec{m: m}).EncodeSnapshot()
}
