package anonlead

import (
	"context"
	"errors"
	"fmt"

	"anonlead/internal/rng"
)

// Scenario declares a repeated-election scenario for RunEpochs: how many
// chained elections, how the leader is removed between them, and whether
// knowledge carries across them.
type Scenario struct {
	// Epochs is the number of chained elections; at least 1.
	Epochs int
	// Revoke ends each reign without killing the node: every epoch
	// re-elects over the full network, modelling voluntary step-down. The
	// default (false) crash-stops the old leader at the start of the next
	// epoch: it is dead for every later epoch (injected as a round-0 crash
	// schedule entry), and re-elections run among the survivors.
	Revoke bool
	// Carry tells every re-election after a crash the surviving node count
	// (as if by WithPresumedN), modelling the Dieudonné–Pelc claim that
	// knowledge from epoch k makes epoch k+1 cheaper. Without it each epoch
	// re-elects with the original presumed size. Nobody dies under Revoke,
	// so the two do not combine.
	Carry bool
}

// Validate rejects a scenario without epochs and carry under revoke.
func (sc Scenario) Validate() error {
	if sc.Epochs < 1 {
		return fmt.Errorf("anonlead: scenario needs at least 1 epoch, got %d", sc.Epochs)
	}
	if sc.Revoke && sc.Carry {
		return fmt.Errorf("anonlead: scenario carry has no effect under revoke (nobody dies)")
	}
	return nil
}

// Fault names the leader-removal mode: "crash" or "revoke".
func (sc Scenario) Fault() string {
	if sc.Revoke {
		return "revoke"
	}
	return "crash"
}

// Descriptor canonically names the scenario, e.g. "epochs=5,fault=crash"
// or "epochs=3,fault=crash,carry". Like the adversary descriptor it is
// cell-identity material: bench artifact cells persist it and trajectory
// alignment keys on it. The zero Scenario yields "".
func (sc Scenario) Descriptor() string {
	if sc == (Scenario{}) {
		return ""
	}
	d := fmt.Sprintf("epochs=%d,fault=%s", sc.Epochs, sc.Fault())
	if sc.Carry {
		d += ",carry"
	}
	return d
}

// EpochResult records one epoch of a RunEpochs scenario.
type EpochResult struct {
	// Metrics is this epoch's election's cost accounting, as Run returned
	// it. Rounds is, for epochs after a leader loss, exactly the
	// time-to-recover; Crashed counts the accumulated dead leaders plus
	// any adversary crashes.
	Metrics
	// Epoch is the 0-based epoch index.
	Epoch int
	// Seed is the run seed this epoch's election used. Epoch 0 runs on
	// the caller's seed; later epochs derive theirs from the previous
	// epoch's outcome (see RunEpochs).
	Seed uint64
	// Elected reports whether this epoch elected a unique leader.
	Elected bool
	// Leader is the elected leader's node index (-1 when !Elected).
	Leader int
	// LeaderID is the elected leader's random ID (0 when !Elected).
	LeaderID uint64
}

// EpochOutcome is the result of a RunEpochs scenario: the per-epoch
// history plus the totals the repeated-election literature cares about.
type EpochOutcome struct {
	// Metrics is the scenario's record: its epochs' Metrics summed by
	// Metrics.Add, except Crashed, which is the last epoch's count (each
	// epoch's count already includes every earlier dead leader, so a sum
	// would count them again). Messages and Rounds over len(Epochs) are
	// the amortized per-epoch costs.
	Metrics
	// Protocol is the canonical protocol name.
	Protocol string
	// Epochs is the per-epoch history, in order.
	Epochs []EpochResult
	// Elected counts the epochs that elected a unique leader.
	Elected int
	// Dead lists the nodes crash-stopped as ex-leaders (crash mode), in
	// death order. The last epoch's leaders are not on it: no later
	// epoch crash-stops them.
	Dead []int
	// MeanRecover is the mean rounds of the successful re-elections
	// (epochs after the first), i.e. the mean time-to-recover from a
	// leader loss; 0 when no re-election succeeded.
	MeanRecover float64
}

// chainEpochSeed derives the next epoch's run seed from the previous
// epoch's: a labeled split of the old seed folded with the outcome's
// observable identity (leader ID, rounds, surviving-leader count), the
// BFT-MVBA idiom of deriving per-epoch leader sequences from a combined
// seed. Pure, so whole multi-epoch histories are bit-identical across
// schedulers and orchestrators.
func chainEpochSeed(prev uint64, out Outcome) uint64 {
	r := rng.New(prev).SplitString("epoch")
	r = r.Split(out.LeaderID)
	r = r.Split(uint64(out.Rounds))
	return r.DeriveSeed(uint64(len(out.Leaders)))
}

// RunEpochs executes the repeated-election scenario sc on the network:
// epochs of (elect → lead → leader crashes or revokes → re-elect), each
// run with the ordinary Run options. One persistent topology hosts the
// whole history; each epoch is a full election whose run seed derives
// from the previous epoch's outcome through the deterministic seed chain,
// so a scenario is reproducible from (network, protocol, scenario, seed,
// options) alone and bit-identical across all schedulers.
//
// In crash mode every elected leader is dead from the next epoch on
// (injected as a round-0 entry of the adversary's crash schedule, merged
// with any caller-specified adversary); with sc.Carry the re-elections are
// told the surviving node count. Epochs that fail to elect
// (ErrNotHalted/ErrNotStabilized, or a non-unique leader set) are recorded
// as failed and the scenario continues — degradation is data, not an
// error. An invalid scenario (see Scenario.Validate) is rejected before
// anything runs; context cancellation and configuration errors abort and
// return the partial history alongside the error.
func (nw *Network) RunEpochs(ctx context.Context, protocol string, sc Scenario, opts ...Option) (EpochOutcome, error) {
	if err := sc.Validate(); err != nil {
		return EpochOutcome{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	if err := o.transport.check(); err != nil {
		return EpochOutcome{}, err
	}
	if o.transport != TransportSim && !sc.Revoke {
		return EpochOutcome{}, fmt.Errorf("anonlead: RunEpochs crash mode requires TransportSim (dead leaders are injected through the simulated adversary)")
	}

	var eo EpochOutcome
	deadSet := make(map[int]bool)
	seed := o.seed
	for e := 0; e < sc.Epochs; e++ {
		eopts := append(append([]Option(nil), opts...), WithSeed(seed))
		if len(eo.Dead) > 0 {
			var spec AdversarySpec
			if o.adversary != nil {
				spec = *o.adversary
			}
			sched := make(map[int]int, len(spec.CrashSchedule)+len(eo.Dead))
			for v, r := range spec.CrashSchedule {
				sched[v] = r
			}
			for _, v := range eo.Dead {
				sched[v] = 0
			}
			spec.CrashSchedule = sched
			eopts = append(eopts, WithAdversary(spec))
			if sc.Carry {
				eopts = append(eopts, WithPresumedN(nw.N()-len(eo.Dead)))
			}
		}

		out, err := nw.Run(ctx, protocol, eopts...)
		eo.Protocol = out.Protocol
		res := EpochResult{Metrics: out.Metrics, Epoch: e, Seed: seed, Leader: -1}
		if err != nil && !errors.Is(err, ErrNotHalted) && !errors.Is(err, ErrNotStabilized) {
			eo.Epochs = append(eo.Epochs, res)
			eo.finish()
			return eo, err
		}
		if err == nil && out.Unique {
			res.Elected = true
			res.Leader = out.Leaders[0]
			res.LeaderID = out.LeaderID
			eo.Elected++
		}
		eo.Epochs = append(eo.Epochs, res)
		if !sc.Revoke && e+1 < sc.Epochs {
			for _, v := range out.Leaders {
				if !deadSet[v] {
					deadSet[v] = true
					eo.Dead = append(eo.Dead, v)
				}
			}
		}
		seed = chainEpochSeed(seed, out)
	}
	eo.finish()
	return eo, nil
}

// finish fills the aggregate fields from the per-epoch history.
func (eo *EpochOutcome) finish() {
	recovered, recoverRounds := 0, 0
	for _, r := range eo.Epochs {
		eo.Add(r.Metrics)
		if r.Epoch > 0 && r.Elected {
			recovered++
			recoverRounds += r.Rounds
		}
	}
	if n := len(eo.Epochs); n > 0 {
		eo.Crashed = eo.Epochs[n-1].Crashed
	}
	if recovered > 0 {
		eo.MeanRecover = float64(recoverRounds) / float64(recovered)
	}
}
