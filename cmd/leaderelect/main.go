// Command leaderelect runs one (or a batch of) leader elections on a
// chosen topology and protocol and reports leaders elected plus exact
// CONGEST cost accounting. Elections run entirely on the public anonlead
// API: the protocol registry (-proto accepts anything in Protocols()),
// the Network.Run session surface, deterministic fault injection, and
// streaming round observation. (Only the -graph help
// reaches inside, for the family table's aliases.)
//
// Usage:
//
//	leaderelect -graph expander -n 256 -proto ire -trials 10
//	leaderelect -graph complete -n 4 -proto revocable -iso 2
//	leaderelect -graph torus -n 64 -proto walknotify -trials 5
//	leaderelect -graph expander -n 64 -proto floodmax -loss 0.1 -trials 20
//	leaderelect -graph expander -n 128 -proto ire -observe 32
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"anonlead"
	"anonlead/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leaderelect:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family    = flag.String("graph", "expander", "topology family: "+graph.FamilyHelp())
		n         = flag.Int("n", 64, "number of nodes")
		proto     = flag.String("proto", "ire", "protocol: "+strings.Join(anonlead.Protocols(), ", "))
		trials    = flag.Int("trials", 1, "number of independent elections")
		seed      = flag.Uint64("seed", 1, "root random seed (trial t runs at seed+t)")
		presumed  = flag.Int("presumed", 0, "misreported network size for the knowledge ablation (0 = truth)")
		c         = flag.Float64("c", 0, "analysis constant c override (0 = default)")
		walks     = flag.Int("x", 0, "IRE: walk-count override (0 = paper formula)")
		eps       = flag.Float64("eps", 0, "revocable: epsilon (0 = default 0.5)")
		iso       = flag.Float64("iso", 0, "revocable: known isoperimetric lower bound (0 = blind)")
		fMult     = flag.Float64("fmult", 0, "revocable: f(k) calibration multiplier (0 = 1)")
		rMult     = flag.Float64("rmult", 0, "revocable: r(k) calibration multiplier (0 = 1)")
		loss      = flag.Float64("loss", 0, "adversary: per-packet drop probability")
		crash     = flag.Float64("crash", 0, "adversary: fraction of nodes crash-stopping")
		crashBy   = flag.Int("crash-by", 16, "adversary: last round a sampled crash may fire")
		churn     = flag.Float64("churn", 0, "adversary: per-edge per-round down probability")
		churnKeep = flag.Bool("churn-keep", false, "adversary: preserve connectivity under churn")
		delayP    = flag.Float64("delay", 0, "adversary: probability a packet is delayed")
		delayMax  = flag.Int("delay-max", 2, "adversary: maximum extra rounds of delay")
		observe   = flag.Int("observe", 0, "print streaming round metrics every K rounds of the first trial (0 = off)")
	)
	flag.Parse()
	if *trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", *trials)
	}
	if *presumed < 0 {
		return fmt.Errorf("-presumed must be >= 0 (0 = truth), got %d", *presumed)
	}

	nw, err := anonlead.NewNetwork(*family, *n, *seed)
	if err != nil {
		return err
	}
	prof, err := nw.Profile()
	if err != nil {
		return err
	}
	fmt.Printf("family=%s\n%s\n", *family, prof)

	adv := anonlead.AdversarySpec{
		Loss:          *loss,
		CrashFraction: *crash,
		CrashBy:       *crashBy,
		Churn:         *churn,
		ChurnPreserve: *churnKeep,
		DelayProb:     *delayP,
		MaxDelay:      *delayMax,
	}
	if err := adv.Validate(); err != nil {
		return err
	}

	// ^C cancels the run cooperatively between simulated rounds.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		success, multi, zero, unstable int
		msgs, bits, rounds, charged    float64
		dropped, delayed               float64
		crashed                        float64
	)
	for t := 0; t < *trials; t++ {
		opts := []anonlead.Option{
			anonlead.WithSeed(*seed + uint64(t)),
			anonlead.WithAdversary(adv),
			anonlead.WithConstant(*c),
			anonlead.WithWalks(*walks),
			anonlead.WithEpsilon(*eps),
			anonlead.WithIsoperimetric(*iso),
			anonlead.WithCalibration(*fMult, *rMult),
			anonlead.WithPresumedN(*presumed),
		}
		if *observe > 0 && t == 0 {
			every := *observe
			opts = append(opts, anonlead.WithObserver(func(ri anonlead.RoundInfo) {
				if ri.Round%every == 0 {
					fmt.Printf("  round %-6d halted=%-4d msgs=%-8d charged=%d\n",
						ri.Round, ri.Halted, ri.Metrics.Messages, ri.Metrics.ChargedRounds)
				}
			}))
		}
		out, err := nw.Run(ctx, *proto, opts...)
		if err != nil {
			if errors.Is(err, anonlead.ErrNotStabilized) && !adv.IsZero() {
				// A faulted revocable election that never stabilizes is a
				// measured outcome, not a CLI failure.
				unstable++
				accumulate(&msgs, &bits, &rounds, &charged, &dropped, &delayed, &crashed, out)
				continue
			}
			return err
		}
		if out.Unique {
			success++
		}
		if len(out.Leaders) > 1 {
			multi++
		}
		if len(out.Leaders) == 0 {
			zero++
		}
		accumulate(&msgs, &bits, &rounds, &charged, &dropped, &delayed, &crashed, out)
	}

	ft := float64(*trials)
	fmt.Printf("protocol: %s trials=%d\n", *proto, *trials)
	if desc := adv.Descriptor(); desc != "" {
		fmt.Printf("faults:   %s (dropped=%.1f delayed=%.1f crashed=%.1f per trial)\n",
			desc, dropped/ft, delayed/ft, crashed/ft)
	}
	fmt.Printf("success:  %d/%d unique leader (multi=%d zero=%d unstable=%d)\n",
		success, *trials, multi, zero, unstable)
	fmt.Printf("cost:     msgs=%.0f bits=%.0f rounds=%.0f charged=%.0f (per-trial means)\n",
		msgs/ft, bits/ft, rounds/ft, charged/ft)
	return nil
}

func accumulate(msgs, bits, rounds, charged, dropped, delayed, crashed *float64, out anonlead.Outcome) {
	*msgs += float64(out.Messages)
	*bits += float64(out.Bits)
	*rounds += float64(out.Rounds)
	*charged += float64(out.ChargedRounds)
	*dropped += float64(out.Dropped)
	*delayed += float64(out.Delayed)
	*crashed += float64(out.Crashed)
}
