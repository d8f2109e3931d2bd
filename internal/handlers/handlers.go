// Package handlers is the sPIN handler library: Go transcriptions of every
// handler in the paper's Appendix C.3 (ping-pong, accumulate, binomial
// broadcast, strided datatypes, RAID/Reed-Solomon) plus the §5.4 use cases
// (key-value store insert, conditional read, graph updates, transaction
// logging). Handlers mirror the published C code and charge the calibrated
// instruction costs of internal/core/costs.go.
package handlers
