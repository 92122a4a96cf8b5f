(* Tests for the deterministic PRNG and the shared string table. *)

module Prng = Qc_util.Prng

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_range_inclusive () =
  let rng = Prng.create 8 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let x = Prng.range rng 3 7 in
    Alcotest.(check bool) "in [3,7]" true (x >= 3 && x <= 7);
    seen.(x - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_unit () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_shuffle_permutation () =
  let rng = Prng.create 10 in
  let xs = List.init 50 Fun.id in
  let ys = Prng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_choose_member () =
  let rng = Prng.create 11 in
  for _ = 1 to 100 do
    let x = Prng.choose rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done

let test_choose_empty () =
  Alcotest.(check (option int)) "empty" None
    (Prng.choose_opt (Prng.create 1) [])

let test_exponential_mean () =
  let rng = Prng.create 12 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "mean %.3f close to 5.0" mean)
    true
    (abs_float (mean -. 5.0) < 0.2)

let test_subset_probability () =
  let rng = Prng.create 13 in
  let xs = List.init 100 Fun.id in
  let total = ref 0 in
  for _ = 1 to 200 do
    total := !total + List.length (Prng.subset rng xs ~p:0.3)
  done;
  let mean = float_of_int !total /. 200.0 in
  Alcotest.(check bool)
    (Fmt.str "mean subset size %.1f close to 30" mean)
    true
    (abs_float (mean -. 30.0) < 3.0)

let test_split_independent () =
  let parent = Prng.create 99 in
  let c1 = Prng.split parent in
  let c2 = Prng.split parent in
  let xs = List.init 10 (fun _ -> Prng.int c1 1_000_000) in
  let ys = List.init 10 (fun _ -> Prng.int c2 1_000_000) in
  Alcotest.(check bool) "children differ" true (xs <> ys)

(* ---------- the ziggurat lognormal ---------- *)

let normal_cdf x = 0.5 *. (1.0 +. Float.erf (x /. sqrt 2.0))

(* Kolmogorov-Smirnov over 10^6 draws: [log] of a lognormal(0, 1) is a
   standard normal, so its empirical CDF must stay within sqrt(n) D of
   [normal_cdf].  The statistic is pinned (the stream is fixed) and
   lies inside the 1 % critical value, 1.63; over seeds 1-20 it
   averages 0.87, as the Kolmogorov distribution does. *)
let test_lognormal_ks () =
  let n = 1_000_000 in
  let t = Prng.create 1 in
  let a = Array.init n (fun _ -> log (Prng.lognormal t ~mu:0.0 ~sigma:1.0)) in
  Array.sort Float.compare a;
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let c = normal_cdf x in
      d :=
        Float.max !d
          (Float.max
             ((float_of_int (i + 1) /. float_of_int n) -. c)
             (c -. (float_of_int i /. float_of_int n))))
    a;
  let stat = sqrt (float_of_int n) *. !d in
  Alcotest.(check bool) "below the 1 % critical value" true (stat < 1.63);
  Alcotest.(check string) "statistic pinned" "1.3297" (Fmt.str "%.4f" stat)

(* Sample moments of lognormal(1, 0.5) over 10^6 draws against
   E = exp (mu + s^2/2) and Var = (exp s^2 - 1) exp (2 mu + s^2):
   within 0.5 % (about 5 standard errors) and 2 % (about 4). *)
let test_lognormal_moments () =
  let n = 1_000_000 and mu = 1.0 and sigma = 0.5 in
  let t = Prng.create 2 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.lognormal t ~mu ~sigma in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  let s2 = sigma *. sigma in
  let mean' = exp (mu +. (s2 /. 2.0)) in
  let var' = (exp s2 -. 1.0) *. exp ((2.0 *. mu) +. s2) in
  Alcotest.(check (float (0.005 *. mean'))) "mean" mean' mean;
  Alcotest.(check (float (0.02 *. var'))) "variance" var' var

(* The tables: 129 edges from [edge 0 = V / f R] down through [edge 1 =
   R] to [edge 128 = 0], and every one of the 128 layers of area V
   under [f x = exp (-x^2/2)] to 1e-12: layer 0 is the strip under
   [f R] plus the tail, layer [i] the rectangle between [f x_i] and
   [f x_(i+1)].  R and V are Doornik's constants to full precision. *)
let test_ziggurat_tables () =
  let module Z = Prng.Ziggurat in
  let f x = exp (-0.5 *. x *. x) in
  let rel a b = Float.abs (a -. b) /. Float.abs b in
  Alcotest.(check (float 0.0)) "edge 1 = R" Z.r (Z.edge 1);
  Alcotest.(check (float 0.0)) "edge 128 = 0" 0.0 (Z.edge 128);
  Alcotest.(check bool) "R is Doornik's" true (rel Z.r 3.442619855899 < 1e-12);
  Alcotest.(check bool) "V is Doornik's" true
    (rel Z.v 9.91256303526217e-3 < 1e-11);
  for i = 0 to 127 do
    Alcotest.(check bool) (Fmt.str "edge %d > edge %d" i (i + 1)) true
      (Z.edge i > Z.edge (i + 1))
  done;
  let tail = sqrt (Float.pi /. 2.0) *. Float.erfc (Z.r /. sqrt 2.0) in
  let area i =
    if i = 0 then (Z.r *. f Z.r) +. tail
    else Z.edge i *. (f (Z.edge (i + 1)) -. f (Z.edge i))
  in
  Alcotest.(check bool) "layer 0 is a V-wide strip" true
    (rel (Z.edge 0 *. f Z.r) Z.v < 1e-12);
  for i = 0 to 127 do
    Alcotest.(check bool) (Fmt.str "layer %d has area V" i) true
      (rel (area i) Z.v < 1e-12)
  done

(* The draw Prng.lognormal replaced: Box-Muller over two uniforms. *)
let box_muller t ~mu ~sigma =
  let u1 = 1.0 -. Prng.float t and u2 = Prng.float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  exp (mu +. (sigma *. z))

(* A draw boxes only its result, slow path included: 10^5 draws
   allocate no more minor words than Box-Muller's 2 per draw. *)
let test_lognormal_words () =
  let n = 100_000 and mu = 1.0 and sigma = 0.5 in
  let words draw =
    let t = Prng.create 3 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (draw t ~mu ~sigma))
    done;
    Gc.minor_words () -. before
  in
  let zig = words Prng.lognormal and bm = words box_muller in
  Alcotest.(check bool)
    (Fmt.str "ziggurat %.0f <= Box-Muller %.0f words" zig bm)
    true (zig <= bm)

(* The ziggurat changed only [lognormal]'s stream: the first draws of
   [bits], [int] and [float] from one seed are the ones the generator
   gave before it. *)
let test_other_streams_pinned () =
  let t = Prng.create 42 in
  let bits = List.init 3 (fun _ -> Prng.bits t) in
  let ints = List.init 3 (fun _ -> Prng.int t 1000) in
  let floats = List.init 3 (fun _ -> Fmt.str "%h" (Prng.float t)) in
  Alcotest.(check (list int)) "bits"
    [ 3419864383188818853; 737456523031723072; 1284820937115690964 ]
    bits;
  Alcotest.(check (list int)) "int" [ 941; 812; 265 ] ints;
  Alcotest.(check (list string)) "float"
    [ "0x1.bf4b38e229bb4p-3"; "0x1.99ec6bdd3d3c5p-1"; "0x1.5c16e1dc2cf5ep-2" ]
    floats

(* [Strtbl] fills buckets, and so iterates, exactly as a polymorphic
   [Hashtbl] would: its hash is [Hashtbl.hash] on strings, and the same
   bindings inserted in the same order fold in the same order. *)
let prop_strtbl_matches_hashtbl =
  QCheck.Test.make ~count:300 ~name:"Strtbl hashes and folds like Hashtbl"
    QCheck.(small_list (pair small_printable_string small_nat))
    (fun kvs ->
      let t = Qc_util.Strtbl.create 4 and h = Hashtbl.create 4 in
      List.iter
        (fun (k, v) ->
          Qc_util.Strtbl.replace t k v;
          Hashtbl.replace h k v)
        kvs;
      List.for_all (fun (k, _) -> String.hash k = Hashtbl.hash k) kvs
      && Qc_util.Strtbl.fold (fun k v acc -> (k, v) :: acc) t []
         = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "different seeds" `Quick test_different_seeds;
        Alcotest.test_case "int range" `Quick test_int_range;
        Alcotest.test_case "range inclusive" `Quick test_range_inclusive;
        Alcotest.test_case "float unit interval" `Quick test_float_unit;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_shuffle_permutation;
        Alcotest.test_case "choose picks members" `Quick test_choose_member;
        Alcotest.test_case "choose_opt empty" `Quick test_choose_empty;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "subset probability" `Quick test_subset_probability;
        Alcotest.test_case "split independence" `Quick test_split_independent;
        Alcotest.test_case "lognormal KS statistic" `Quick test_lognormal_ks;
        Alcotest.test_case "lognormal moments" `Quick test_lognormal_moments;
        Alcotest.test_case "ziggurat tables" `Quick test_ziggurat_tables;
        Alcotest.test_case "lognormal words per draw" `Quick
          test_lognormal_words;
        Alcotest.test_case "other streams unchanged" `Quick
          test_other_streams_pinned;
      ] );
    ( "util.strtbl",
      [
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_strtbl_matches_hashtbl;
      ] );
  ]
