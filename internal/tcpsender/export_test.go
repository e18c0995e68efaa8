package tcpsender

import "crypto/sha256"

// PatternSum hashes the shared payload table, for tests that frames built
// from it leave it as the initializer made it.
func PatternSum() [sha256.Size]byte { return sha256.Sum256(pattern) }
