// Package fixture exercises lpowner rule B: it calls netsim.NewClusterLP,
// so installing delivery callbacks or a recorder by field assignment is
// flagged — by assignment statement, by composite literal, and on the
// cluster recorder field — while an annotated site passes.
package fixture

import "repro/internal/netsim"

func buildLP() (*netsim.Cluster, error) {
	return netsim.NewClusterLP(8, netsim.Params{}, 2)
}

func register(c *netsim.Cluster, msg *netsim.Message) {
	msg.Delivered = delivered // want `Message\.Delivered set in a package that builds LP clusters`
	c.Rec = nil               // want `Cluster\.Rec assigned in a package that builds LP clusters`
}

func build() *netsim.Message {
	return &netsim.Message{Delivered: delivered} // want `Message\.Delivered set in a package that builds LP clusters`
}

func reviewed(msg *netsim.Message) {
	msg.Delivered = delivered //simlint:lpowner-ok fixture: serial-only code path, never reached under LP partitioning
}

func delivered(arg any) {}
