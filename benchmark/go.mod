module delrep/benchmark

go 1.22

require delrep v0.0.0

replace delrep => ../
