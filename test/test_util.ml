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
      ] );
    ( "util.strtbl",
      [
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| 0x5eed |])
          prop_strtbl_matches_hashtbl;
      ] );
  ]
