//go:build !linux || !(amd64 || arm64)

package overlay

import "testing"

func testTransmitAccountingTrains(t *testing.T) {
	t.Skip("no UDP_SEGMENT transmit on this platform")
}
