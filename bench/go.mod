// The benchmark is its own module so that it builds, vets and tests apart
// from the library (the root module's ./... does not reach in here). The
// import path stays under omnireduce/ so internal/ packages are importable.
module omnireduce/bench

go 1.23

require omnireduce v0.0.0

replace omnireduce => ../
