package anonlead

import "anonlead/internal/adversary"

// AdversarySpec declares a deterministic fault-injection adversary (message
// loss, crash-stop, link churn, delivery jitter, traffic-adaptive crashes)
// for WithAdversary. It is the very type the fault-injection sweeps record
// in their bench artifacts, so a spec and its canonical Descriptor mean the
// same thing on both surfaces. The zero value means "no adversary".
type AdversarySpec = adversary.Spec
