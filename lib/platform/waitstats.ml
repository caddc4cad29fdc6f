let parks = Atomic.make 0

let note_park () = Atomic.incr parks
let park_total () = Atomic.get parks
let reset () = Atomic.set parks 0
