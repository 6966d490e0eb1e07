package core

// AuthenticateExhaustive is the paper's reference decision and the oracle
// the ANN engine is tested against: the full one-vs-one SVM vote over
// every user in the image's bin, then the same SVDD gate Authenticate
// uses. For bins of at most maxSVMUsers users the vote runs on the very
// SVM the serving path re-ranks its shortlist with.
func (a *Authenticator) AuthenticateExhaustive(img *AcousticImage) AuthResult {
	bm, bin := a.binFor(img)
	if bm == nil {
		return noBin(bin)
	}
	x := a.vector(bm, img)
	candidate := bm.users[0]
	if bm.identify != nil {
		candidate = bm.identify.Predict(x)
	}
	return bm.verify(x, candidate, bin)
}

// MaxSVMUsers exposes the re-ranker bound so tests can size a roster past it.
const MaxSVMUsers = maxSVMUsers
