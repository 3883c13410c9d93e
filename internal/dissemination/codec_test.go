package dissemination

import "sspd/internal/stream"

// encodeInterestSet encodes a registration as a relay sends it.
func encodeInterestSet(set *stream.InterestSet) ([]byte, error) {
	return stream.AppendInterestSet(nil, set), nil
}
