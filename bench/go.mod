module waran/bench

go 1.22

require waran v0.0.0

replace waran => ../
