package transport

import (
	"encoding/gob"
	"sync"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/paxoscommit"
	"repro/internal/recovery"
	"repro/internal/threepc"
	"repro/internal/twopc"
	"repro/internal/txn"
)

var registerOnce sync.Once

// RegisterWirePayloads registers every payload type shipped in this
// repository with encoding/gob so TCP transports can carry them. Safe to
// call multiple times; call it once before creating TCP nodes.
func RegisterWirePayloads() {
	registerOnce.Do(func() {
		gob.Register(core.GoMsg{})
		gob.Register(core.VoteMsg{})
		gob.Register(core.Piggyback{})
		gob.Register(core.BatchVoteMsg{})
		gob.Register(agreement.ReportMsg{})
		gob.Register(agreement.VecReportMsg{})
		gob.Register(agreement.VecProposalMsg{})
		gob.Register(agreement.VecDecidedMsg{})
		gob.Register(agreement.ProposalMsg{})
		gob.Register(agreement.DecidedMsg{})
		gob.Register(twopc.PrepareMsg{})
		gob.Register(twopc.VoteMsg{})
		gob.Register(twopc.OutcomeMsg{})
		gob.Register(threepc.CanCommitMsg{})
		gob.Register(threepc.VoteMsg{})
		gob.Register(threepc.PreCommitMsg{})
		gob.Register(threepc.AckMsg{})
		gob.Register(threepc.DoCommitMsg{})
		gob.Register(threepc.AbortMsg{})
		gob.Register(txn.Envelope{})
		gob.Register(txn.BatchEnvelope{})
		gob.Register(txn.Bundle{})
		gob.Register(recovery.QueryMsg{})
		gob.Register(recovery.ReplyMsg{})
		gob.Register(paxoscommit.Prepare1aMsg{})
		gob.Register(paxoscommit.Promise1bMsg{})
		gob.Register(paxoscommit.Accept2aMsg{})
		gob.Register(paxoscommit.Accepted2bMsg{})
		gob.Register(paxoscommit.OutcomeMsg{})
	})
}
