package transport

import "time"

// SetParkWait bounds how long c's Park waits for its port readers, so a
// test of a port that never closes need not wait parkTimeout.
func SetParkWait(c *Cluster, d time.Duration) { c.parkWait = d }
