module acme/bench

go 1.24

require acme v0.0.0

replace acme => ../
