package baseline

import "anonlead/internal/core"

// The baselines register themselves into the shared protocol registry, so
// the public anonlead.Run path and the experiment harness execute them
// through exactly the same factories as the paper's protocols. "flood" is
// kept as an alias of "floodmax": it is the spelling the sweep artifacts
// key cells on.
func init() {
	core.Register(core.Entry{
		Name:    "floodmax",
		Aliases: []string{"flood"},
		Needs:   core.NeedDiam,
		Build:   buildFlood,
		Wire:    wireCodec{},
	})
	core.Register(core.Entry{
		Name:  "allflood",
		Needs: core.NeedDiam,
		Build: func(pc core.ProtoConfig) (core.Runner, error) {
			pc.AllNodes = true
			return buildFlood(pc)
		},
		Wire: wireCodec{},
	})
	core.Register(core.Entry{
		Name:  "walknotify",
		Needs: core.NeedTMix,
		Build: buildWalkNotify,
		Wire:  wireCodec{},
	})
}
