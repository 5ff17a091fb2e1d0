type t = { bits : Bytes.t; length : int }

let length t = t.length

let create n = { bits = Bytes.make ((n + 7) / 8) '\000'; length = n }

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Bitseq.get: out of bounds";
  (Char.code (Bytes.get t.bits (i lsr 3)) lsr (i land 7)) land 1

let set t i v =
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v = 0 then byte land lnot mask else byte lor mask in
  Bytes.set t.bits (i lsr 3) (Char.chr byte)

let of_int_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i v -> set t i (v land 1)) a;
  t

let of_words ~bits_per_word words =
  if bits_per_word < 1 || bits_per_word > 62 then
    invalid_arg "Bitseq.of_words: bits_per_word must be in [1,62]";
  let t = create (Array.length words * bits_per_word) in
  Array.iteri
    (fun wi w ->
      for b = 0 to bits_per_word - 1 do
        let bit = (w lsr (bits_per_word - 1 - b)) land 1 in
        set t ((wi * bits_per_word) + b) bit
      done)
    words;
  t

let of_addresses ~lo ~hi addrs =
  if lo < 0 || hi < lo then invalid_arg "Bitseq.of_addresses: bad bit range";
  let width = hi - lo + 1 in
  of_words ~bits_per_word:width (Array.map (fun a -> a lsr lo) addrs)

let of_source src n =
  let words = (n + 31) / 32 in
  let t = create n in
  let pos = ref 0 in
  for _ = 1 to words do
    let w = src.Stz_prng.Source.next_u32 () in
    let b = ref 31 in
    while !pos < n && !b >= 0 do
      set t !pos ((w lsr !b) land 1);
      incr pos;
      decr b
    done
  done;
  t

let ones t =
  let acc = ref 0 in
  for i = 0 to t.length - 1 do
    acc := !acc + get t i
  done;
  !acc

let slice t pos len =
  if pos < 0 || len < 0 || pos + len > t.length then
    invalid_arg "Bitseq.slice: out of bounds";
  let out = create len in
  for i = 0 to len - 1 do
    set out i (get t (pos + i))
  done;
  out
