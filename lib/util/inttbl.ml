type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

let create n =
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  { size = 0; buckets = Array.make (pow2 1) Empty }

let length t = t.size
let index buckets k = (k lxor (k lsr 32)) land (Array.length buckets - 1)

let rec find_in k = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = k then c.data else find_in k c.next

let find t k = find_in k t.buckets.(index t.buckets k)

let rec find_or_in k default = function
  | Empty -> default
  | Cons c -> if c.key = k then c.data else find_or_in k default c.next

let find_or t k default = find_or_in k default t.buckets.(index t.buckets k)

(* move a chain's cells onto the doubled bucket array *)
let rec relink buckets = function
  | Empty -> ()
  | Cons c as cell ->
      let next = c.next in
      let i = index buckets c.key in
      c.next <- buckets.(i);
      buckets.(i) <- cell;
      relink buckets next

let resize t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) Empty in
  Array.iter (relink buckets) old;
  t.buckets <- buckets

let rec set_in k v = function
  | Empty -> false
  | Cons c ->
      if c.key = k then begin
        c.data <- v;
        true
      end
      else set_in k v c.next

let replace t k v =
  let i = index t.buckets k in
  if not (set_in k v t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key = k; data = v; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t
  end

let rec unlink t i k prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = k then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> t.buckets.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else unlink t i k cell c.next

let remove t k =
  let i = index t.buckets k in
  unlink t i k Empty t.buckets.(i)
