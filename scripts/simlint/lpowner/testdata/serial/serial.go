// Package fixture registers delivery callbacks but never calls
// NewClusterLP: rule B binds only packages that build LP clusters, so a
// serial-only package registers freely.
package fixture

import "repro/internal/netsim"

func build() (*netsim.Cluster, error) {
	return netsim.NewCluster(8, netsim.Params{})
}

func register(c *netsim.Cluster, msg *netsim.Message) {
	msg.Delivered = func(arg any) {}
	c.Rec = nil
}
