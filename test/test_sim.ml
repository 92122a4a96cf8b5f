(* Tests for the discrete-event simulator: heap, clock, network,
   failures, statistics. *)

module Prng = Qc_util.Prng

(* ---------- heap ---------- *)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  List.iteri (fun i t -> Sim.Heap.push h t i t) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let rec drain acc =
    match Sim.Heap.pop h with
    | Some (t, _, _) -> drain (t :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain [])

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h 1.0 1 "first";
  Sim.Heap.push h 1.0 2 "second";
  (match Sim.Heap.pop h with
  | Some (_, _, v) -> Alcotest.(check string) "fifo" "first" v
  | None -> Alcotest.fail "pop");
  match Sim.Heap.pop h with
  | Some (_, _, v) -> Alcotest.(check string) "fifo 2" "second" v
  | None -> Alcotest.fail "pop"

let prop_heap_sorted =
  QCheck.Test.make ~count:100 ~name:"heap drains in key order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri (fun i t -> Sim.Heap.push h t i ()) times;
      let rec drain prev =
        match Sim.Heap.pop h with
        | None -> true
        | Some (t, _, ()) -> t >= prev && drain t
      in
      drain neg_infinity)

(* Model-based: random interleavings of push / pop / take, with times
   from a four-value set so ties are frequent, checked step by step
   against a list sorted by (time, seq).  [min_time] / [min_seq] must
   agree with [peek], and every read of an empty heap must say so.
   The deep variant runs 400-1,200 steps that push twice as often as
   they remove, so the heap crosses its 16/32/64/128 capacity
   doublings and pops walk a hole down many levels, with continuous
   times mixed into the tie set. *)
type heap_op = Push of float | Pop | Take

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> Push t) (oneofl [ 0.0; 1.0; 2.0; infinity ]));
        (1, return Pop);
        (1, return Take);
      ])

(* times from a tie set half the time, from a continuum otherwise *)
let deep_time_gen ties =
  QCheck.Gen.(frequency [ (1, oneofl ties); (1, float_bound_inclusive 1000.0) ])

let deep_heap_ops =
  QCheck.Gen.(
    list_size (int_range 400 1200)
      (frequency
         [
           (4, map (fun t -> Push t) (deep_time_gen [ 0.0; 1.0; 2.0; infinity ]));
           (1, return Pop);
           (1, return Take);
         ]))

let heap_op_print = function
  | Push t -> Fmt.str "push %g" t
  | Pop -> "pop"
  | Take -> "take"

let heap_model_prop ~count ~name ops_gen =
  QCheck.Test.make ~count ~name
    QCheck.(make ~print:(Print.list heap_op_print) ops_gen)
    (fun ops ->
      let h = Sim.Heap.create () in
      let by_key (t1, s1, _) (t2, s2, _) =
        match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
      in
      let empty_raises f =
        match f () with _ -> false | exception Invalid_argument _ -> true
      in
      let agrees model =
        Sim.Heap.length h = List.length model
        && Sim.Heap.peek h = (match model with [] -> None | e :: _ -> Some e)
        &&
        match model with
        | [] ->
            empty_raises (fun () -> Sim.Heap.min_time h)
            && empty_raises (fun () -> Sim.Heap.min_seq h)
        | (t, s, _) :: _ ->
            Float.equal (Sim.Heap.min_time h) t && Sim.Heap.min_seq h = s
      in
      let rec go seq model = function
        | [] -> true
        | op :: rest -> (
            match (op, model) with
            | Push t, _ ->
                Sim.Heap.push h t seq seq;
                let model = List.merge by_key model [ (t, seq, seq) ] in
                agrees model && go (seq + 1) model rest
            | Pop, [] -> Sim.Heap.pop h = None && go seq model rest
            | Pop, e :: model ->
                Sim.Heap.pop h = Some e && agrees model && go seq model rest
            | Take, [] ->
                empty_raises (fun () -> Sim.Heap.take h) && go seq model rest
            | Take, (_, _, v) :: model ->
                Sim.Heap.take h = v && agrees model && go seq model rest)
      in
      go 0 [] ops)

let prop_heap_model =
  heap_model_prop ~count:300 ~name:"heap matches a sorted-list model"
    QCheck.Gen.(list heap_op_gen)

let prop_heap_model_deep =
  heap_model_prop ~count:60
    ~name:"deep heap matches a sorted-list model past 128 entries"
    deep_heap_ops

(* A value the heap gave back must not stay reachable from it — also
   when the heap empties, and for entries that moved through the slot
   being vacated. *)
let test_heap_releases_values () =
  let h = Sim.Heap.create () in
  let w = Weak.create 4 in
  let push i t =
    let v = ref i in
    Weak.set w i (Some v);
    Sim.Heap.push h t i v
  in
  let released i =
    Gc.full_major ();
    not (Weak.check w i)
  in
  push 0 1.0;
  push 1 2.0;
  push 2 3.0;
  ignore (Sys.opaque_identity (Sim.Heap.pop h));
  ignore (Sys.opaque_identity (Sim.Heap.take h));
  push 3 4.0;
  ignore (Sys.opaque_identity (Sim.Heap.pop h));
  Alcotest.(check (list bool))
    "taken values released, the live one kept" [ true; true; true; false ]
    (List.init 4 released);
  ignore (Sys.opaque_identity (Sim.Heap.take h));
  Alcotest.(check bool) "heap empty" true (Sim.Heap.is_empty h);
  Alcotest.(check bool) "last value released" true (released 3);
  push 0 1.0;
  ignore (Sys.opaque_identity (Sim.Heap.pop h));
  Alcotest.(check bool) "popped to empty: released" true (released 0);
  (* Deep enough that a take walks its hole down five levels and moves
     the last entry up from a leaf, and a cancel does the same from
     inside the heap: every value that left is released, every live
     one kept, whichever positions the walks moved it through. *)
  let n = 40 in
  let w = Weak.create n in
  let handles =
    Array.init n (fun i ->
        let v = ref i in
        Weak.set w i (Some v);
        Sim.Heap.add h (float_of_int ((i * 17) mod n)) i v)
  in
  let left = Array.make n false in
  for _ = 1 to 10 do
    left.(!(Sim.Heap.take h)) <- true
  done;
  for i = 0 to n - 1 do
    if i mod 3 = 0 && Sim.Heap.cancel h handles.(i) then left.(i) <- true
  done;
  Gc.full_major ();
  Alcotest.(check (array bool))
    "taken and cancelled values released, live ones kept" left
    (Array.init n (fun i -> not (Weak.check w i)));
  Alcotest.(check int) "live entries"
    (Array.fold_left (fun k l -> if l then k else k + 1) 0 left)
    (Sim.Heap.length h)

(* Model-based, with handles: random push / take / cancel sequences,
   where a cancel names any handle issued so far — live, already taken,
   already cancelled (so repeated), or one whose slot a later push
   reused.  A cancel must remove exactly the live entry it names and
   report whether it did; the heap must agree with the sorted list at
   every step and drain in its order. *)
type cancel_op =
  | CPush of float
  | CTake
  | CCancel of int
  | CCancelTop  (** cancel the entry at the root *)
  | CPushCancel  (** push past every key, then cancel it: the last position *)

let cancel_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> CPush t) (oneofl [ 0.0; 1.0; 2.0; 3.0 ]));
        (1, return CTake);
        (2, map (fun i -> CCancel i) (int_bound 1000));
      ])

let cancel_op_print = function
  | CPush t -> Fmt.str "push %g" t
  | CTake -> "take"
  | CCancel i -> Fmt.str "cancel #%d" i
  | CCancelTop -> "cancel top"
  | CPushCancel -> "push last, cancel it"

(* The deep variant: 600-1,500 steps, pushing faster than they remove
   so the heap crosses its capacity doublings, with cancels of the
   root and of the last position next to cancels of any handle. *)
let deep_cancel_ops =
  QCheck.Gen.(
    list_size (int_range 600 1500)
      (frequency
         [
           (5, map (fun t -> CPush t) (deep_time_gen [ 0.0; 1.0; 2.0; 3.0 ]));
           (1, return CTake);
           (1, map (fun i -> CCancel i) (int_bound 1000));
           (1, return CCancelTop);
           (1, return CPushCancel);
         ]))

let heap_cancel_prop ~count ~name ops_gen =
  QCheck.Test.make ~count ~name
    QCheck.(make ~print:(Print.list cancel_op_print) ops_gen)
    (fun ops ->
      let h = Sim.Heap.create () in
      let by_key (t1, s1) (t2, s2) =
        match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
      in
      let agrees model =
        Sim.Heap.length h = List.length model
        &&
        match model with
        | [] -> Sim.Heap.is_empty h
        | (t, s) :: _ ->
            Float.equal (Sim.Heap.min_time h) t && Sim.Heap.min_seq h = s
      in
      (* issued handles, newest first, with the seq each was issued for *)
      let rec go seq issued model = function
        | [] ->
            let rec drain = function
              | [] -> Sim.Heap.is_empty h
              | (_, s) :: rest -> Sim.Heap.take h = s && drain rest
            in
            drain model
        | CPush t :: rest ->
            let hd = Sim.Heap.add h t seq seq in
            let model = List.merge by_key model [ (t, seq) ] in
            agrees model && go (seq + 1) ((hd, seq) :: issued) model rest
        | CTake :: rest -> (
            match model with
            | [] -> go seq issued model rest
            | (_, s) :: model ->
                Sim.Heap.take h = s && agrees model && go seq issued model rest)
        | CCancel i :: rest ->
            if issued = [] then go seq issued model rest
            else
              let hd, s = List.nth issued (i mod List.length issued) in
              let live = List.exists (fun (_, s') -> s' = s) model in
              let model = List.filter (fun (_, s') -> s' <> s) model in
              Sim.Heap.cancel h hd = live && agrees model
              && go seq issued model rest
        | CCancelTop :: rest -> (
            match model with
            | [] -> go seq issued model rest
            | (_, s) :: model ->
                let hd, _ = List.find (fun (_, s') -> s' = s) issued in
                Sim.Heap.cancel h hd && agrees model
                && go seq issued model rest)
        | CPushCancel :: rest ->
            (* [infinity] with the newest seq is past every key, so the
               entry stays at the last position *)
            let hd = Sim.Heap.add h infinity seq seq in
            Sim.Heap.length h = List.length model + 1
            && Sim.Heap.cancel h hd && agrees model
            && go (seq + 1) ((hd, seq) :: issued) model rest
      in
      go 0 [] [] ops)

let prop_heap_cancel_model =
  heap_cancel_prop ~count:500 ~name:"heap with cancel matches a sorted list"
    QCheck.Gen.(list cancel_op_gen)

let prop_heap_cancel_model_deep =
  heap_cancel_prop ~count:60
    ~name:"deep heap with cancel matches a sorted list past 128 entries"
    deep_cancel_ops

(* A slot freed by a take or a cancel is reused by the next push; the
   old handle must stay stale, and a cancelled value must be released
   like a taken one. *)
let test_heap_stale_handles () =
  let h = Sim.Heap.create () in
  let w = Weak.create 1 in
  let a = Sim.Heap.add h 1.0 0 (ref 0) in
  Alcotest.(check int) "taken" 0 !(Sim.Heap.take h);
  let v = ref 1 in
  Weak.set w 0 (Some v);
  let b = Sim.Heap.add h 2.0 1 v in
  Alcotest.(check bool) "the slot was reused" true
    ((a :> int) land 0xffff = (b :> int) land 0xffff);
  Alcotest.(check bool) "stale handle: no-op" false (Sim.Heap.cancel h a);
  Alcotest.(check int) "the new entry survives" 1 (Sim.Heap.length h);
  Alcotest.(check bool) "none: no-op" false (Sim.Heap.cancel h Sim.Heap.none);
  Alcotest.(check bool) "live handle cancels" true (Sim.Heap.cancel h b);
  Alcotest.(check bool) "repeated cancel: no-op" false (Sim.Heap.cancel h b);
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Gc.full_major ();
  Alcotest.(check bool) "cancelled value released" false (Weak.check w 0)

(* The event path allocates nothing: add, cancel and take on a heap
   that already has its capacity.  The times are boxed up front: a
   float passed to a function that is not inlined across modules (as
   in the dev profile, which compiles opaquely) is boxed by the caller,
   which is not the heap's cost. *)
let test_heap_no_alloc () =
  let h = Sim.Heap.create () in
  for i = 0 to 127 do
    Sim.Heap.push h (float_of_int i) i ()
  done;
  for _ = 0 to 63 do
    Sim.Heap.take h
  done;
  let times = Array.init 97 (fun i -> ref (float_of_int i)) in
  let seq = ref 128 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    incr seq;
    let a = Sim.Heap.add h !(times.(!seq mod 97)) !seq () in
    incr seq;
    Sim.Heap.push h !(times.(!seq mod 89)) !seq ();
    ignore (Sim.Heap.cancel h a : bool);
    Sim.Heap.take h
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Fmt.str "%.0f words over 10k rounds" words)
    true (words < 100.0)

(* ---------- clock ---------- *)

let test_sim_time_advances () =
  let sim = Sim.Core.create ~seed:1 in
  let order = ref [] in
  Sim.Core.schedule sim ~delay:5.0 (fun () -> order := "b" :: !order);
  Sim.Core.schedule sim ~delay:1.0 (fun () ->
      order := "a" :: !order;
      Sim.Core.schedule sim ~delay:1.0 (fun () -> order := "c" :: !order));
  Sim.Core.run sim;
  Alcotest.(check (list string)) "event order" [ "a"; "c"; "b" ] (List.rev !order);
  Alcotest.(check (float 0.001)) "final time" 5.0 (Sim.Core.now sim)

let test_sim_until () =
  let sim = Sim.Core.create ~seed:1 in
  let fired = ref false in
  Sim.Core.schedule sim ~delay:10.0 (fun () -> fired := true);
  Sim.Core.run ~until:5.0 sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check (float 0.001)) "clock at bound" 5.0 (Sim.Core.now sim)

let test_sim_nan_delay () =
  let sim = Sim.Core.create ~seed:1 in
  Alcotest.check_raises "NaN delay rejected"
    (Invalid_argument "Sim.Core.schedule: NaN delay") (fun () ->
      Sim.Core.schedule sim ~delay:Float.nan ignore);
  let order = ref [] in
  Sim.Core.schedule sim ~delay:infinity (fun () -> order := "inf" :: !order);
  Sim.Core.schedule sim ~delay:(-1.0) (fun () -> order := "now" :: !order);
  Sim.Core.run ~until:1e9 sim;
  Alcotest.(check (list string)) "infinity waits" [ "now" ] !order;
  Sim.Core.run sim;
  Alcotest.(check (list string)) "then runs" [ "inf"; "now" ] !order;
  Alcotest.(check int) "two events" 2 (Sim.Core.executed_events sim)

(* Timers: a cancelled timer never runs and no longer counts as
   pending; cancelling one that ran, or cancelling twice, does nothing
   and leaves the count alone. *)
let test_core_timers () =
  let sim = Sim.Core.create ~seed:1 in
  let fired = ref [] in
  let tm name d = Sim.Core.timer sim ~delay:d (fun () -> fired := name :: !fired) in
  let a = tm "a" 1.0 and b = tm "b" 2.0 and c = tm "c" 3.0 in
  Alcotest.(check int) "three pending" 3 (Sim.Core.pending sim);
  Sim.Core.cancel sim b;
  Sim.Core.cancel sim b;
  Sim.Core.cancel sim Sim.Core.no_timer;
  Alcotest.(check int) "cancelled once" 2 (Sim.Core.pending sim);
  Sim.Core.run ~until:1.5 sim;
  Sim.Core.cancel sim a;
  Alcotest.(check int) "a ran; cancelling it after is a no-op" 1
    (Sim.Core.pending sim);
  Sim.Core.run sim;
  Sim.Core.cancel sim c;
  Alcotest.(check (list string)) "b never ran" [ "a"; "c" ] (List.rev !fired);
  Alcotest.(check int) "nothing pending" 0 (Sim.Core.pending sim);
  Alcotest.(check int) "two events ran" 2 (Sim.Core.executed_events sim);
  Alcotest.(check (float 0.0)) "the run ended at c" 3.0 (Sim.Core.now sim)

(* Background events run interleaved with foreground ones, in key
   order, but never keep a run going: it ends with the last foreground
   event, also under [~until]. *)
let test_core_background () =
  let sim = Sim.Core.create ~seed:1 in
  let order = ref [] in
  let rec tick n =
    Sim.Core.background sim ~delay:1.0 (fun () ->
        order := Fmt.str "bg%d" n :: !order;
        tick (n + 1))
  in
  tick 1;
  Sim.Core.schedule sim ~delay:2.5 (fun () -> order := "fg" :: !order);
  Alcotest.(check int) "one foreground event" 1 (Sim.Core.pending sim);
  Sim.Core.run ~until:100.0 sim;
  Alcotest.(check (list string)) "interleaved, then stop"
    [ "bg1"; "bg2"; "fg" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "the clock stays at the last event" 2.5
    (Sim.Core.now sim);
  Sim.Core.run sim;
  Alcotest.(check int) "background alone runs nothing" 3
    (Sim.Core.executed_events sim);
  (* a crash storm without a horizon is background work too *)
  let net = Sim.Net.create ~sim ~nodes:[ "n" ] () in
  let inj =
    Sim.Failure.attach ~sim ~net ~node:"n"
      ~spec:{ Sim.Failure.mtbf = 1.0; mttr = 1.0 }
      ()
  in
  Sim.Core.run sim;
  Alcotest.(check int) "no transitions without foreground work" 0
    (Sim.Failure.transitions inj);
  Sim.Core.schedule sim ~delay:1000.0 ignore;
  Sim.Core.run sim;
  Alcotest.(check bool) "transitions while foreground work is pending" true
    (Sim.Failure.transitions inj > 100);
  Alcotest.(check (float 0.0)) "ended at the foreground horizon" 1002.5
    (Sim.Core.now sim)

(* ---------- network ---------- *)

let mk_net ?(loss = 0.0) () =
  let sim = Sim.Core.create ~seed:3 in
  let net =
    Sim.Net.create ~sim ~nodes:[ "a"; "b" ]
      ~latency:(Sim.Net.uniform_latency ~lo:1.0 ~hi:2.0)
      ~loss ()
  in
  (sim, net)

let test_net_delivery () =
  let sim, net = mk_net () in
  let got = ref [] in
  Sim.Net.register net ~node:"b" (fun ~src msg -> got := (src, msg) :: !got);
  Sim.Net.send net ~src:"a" ~dst:"b" 42;
  Sim.Core.run sim;
  Alcotest.(check (list (pair string int))) "delivered" [ ("a", 42) ] !got

let test_net_crash_drops () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.crash net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "dropped at dead dst" 0 !got;
  Sim.Net.recover net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 2;
  Sim.Core.run sim;
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_net_dead_sender () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.crash net "a";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "dead sender drops" 0 !got

let test_net_link_cut () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.cut_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "cut link drops" 0 !got;
  Sim.Net.heal_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 2;
  Sim.Core.run sim;
  Alcotest.(check int) "healed link delivers" 1 !got

let test_net_loss_rate () =
  let sim, net = mk_net ~loss:0.5 () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  for _ = 1 to 2000 do
    Sim.Net.send net ~src:"a" ~dst:"b" 0
  done;
  Sim.Core.run sim;
  let rate = float_of_int !got /. 2000.0 in
  Alcotest.(check bool)
    (Fmt.str "delivery rate %.3f close to 0.5" rate)
    true
    (abs_float (rate -. 0.5) < 0.05)

let test_sim_determinism () =
  let run () =
    let sim, net = mk_net ~loss:0.3 () in
    let got = ref 0 in
    Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
    for _ = 1 to 100 do
      Sim.Net.send net ~src:"a" ~dst:"b" 0
    done;
    Sim.Core.run sim;
    (!got, Sim.Core.now sim)
  in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ())

(* ---------- failures ---------- *)

let test_failure_availability () =
  (* a node under mtbf=90 mttr=10 should be up ~90% of the time *)
  let sim = Sim.Core.create ~seed:5 in
  let net =
    Sim.Net.create ~sim ~nodes:[ "n" ]
      ~latency:(Sim.Net.uniform_latency ~lo:0.1 ~hi:0.2)
      ()
  in
  let spec = { Sim.Failure.mtbf = 90.0; mttr = 10.0 } in
  Alcotest.(check (float 0.001)) "analytic availability" 0.9
    (Sim.Failure.availability spec);
  let inj = Sim.Failure.attach ~sim ~net ~node:"n" ~spec ~until:100_000.0 () in
  let up_samples = ref 0 and samples = 1000 in
  let rec sample i =
    if i < samples then
      Sim.Core.schedule sim ~delay:100.0 (fun () ->
          if Sim.Net.is_up net "n" then incr up_samples;
          sample (i + 1))
  in
  sample 0;
  Sim.Core.run ~until:100_001.0 sim;
  let frac = float_of_int !up_samples /. float_of_int samples in
  Alcotest.(check bool)
    (Fmt.str "measured availability %.3f close to 0.9" frac)
    true
    (abs_float (frac -. 0.9) < 0.05);
  (* the injector handle's own accounting must agree *)
  let inj_frac = Sim.Failure.up_fraction inj ~now:(Sim.Core.now sim) in
  Alcotest.(check bool)
    (Fmt.str "injector up-fraction %.3f close to 0.9" inj_frac)
    true
    (abs_float (inj_frac -. 0.9) < 0.05)

(* ---------- stats ---------- *)

let test_stats_percentiles () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  let sum = Sim.Stats.summarize s in
  Alcotest.(check int) "count" 100 sum.Sim.Stats.count;
  Alcotest.(check (float 0.001)) "mean" 50.5 sum.Sim.Stats.mean;
  Alcotest.(check (float 0.001)) "p50" 50.0 sum.Sim.Stats.p50;
  Alcotest.(check (float 0.001)) "p90" 90.0 sum.Sim.Stats.p90;
  Alcotest.(check (float 0.001)) "p99" 99.0 sum.Sim.Stats.p99;
  Alcotest.(check (float 0.001)) "max" 100.0 sum.Sim.Stats.max

let test_stats_empty () =
  let sum = Sim.Stats.summarize (Sim.Stats.create ()) in
  Alcotest.(check int) "count 0" 0 sum.Sim.Stats.count

(* Pinned nearest-rank values: rank = ceil(p * n), 1-based.  These pin
   the percentile definition so it cannot silently drift. *)
let test_stats_nearest_rank () =
  let pct xs p = Sim.Stats.percentile (Sim.Stats.of_list xs) p in
  let check name expected got =
    Alcotest.(check (float 0.0)) name expected got
  in
  (* n = 1: every percentile is the only sample *)
  check "n=1 p50" 7.0 (pct [ 7.0 ] 0.50);
  check "n=1 p999" 7.0 (pct [ 7.0 ] 0.999);
  (* n = 2: p50 -> rank ceil(1.0) = 1; p90 -> rank ceil(1.8) = 2 *)
  check "n=2 p50" 1.0 (pct [ 2.0; 1.0 ] 0.50);
  check "n=2 p90" 2.0 (pct [ 2.0; 1.0 ] 0.90);
  (* n = 10 over 1..10 *)
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "n=10 p50" 5.0 (pct ten 0.50);
  check "n=10 p90" 9.0 (pct ten 0.90);
  check "n=10 p95" 10.0 (pct ten 0.95);
  check "n=10 p999" 10.0 (pct ten 0.999);
  (* n = 100 over 1..100 *)
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "n=100 p50" 50.0 (pct hundred 0.50);
  check "n=100 p95" 95.0 (pct hundred 0.95);
  check "n=100 p99" 99.0 (pct hundred 0.99);
  check "n=100 p999" 100.0 (pct hundred 0.999);
  (* out-of-range p clamps to the extremes *)
  check "p=0 is min" 1.0 (pct hundred 0.0);
  check "p=1 is max" 100.0 (pct hundred 1.0)

let test_stats_p95_p999_summary () =
  let s = Sim.Stats.create () in
  for i = 1 to 1000 do
    Sim.Stats.add s (float_of_int i)
  done;
  let sum = Sim.Stats.summarize s in
  Alcotest.(check (float 0.0)) "p95" 950.0 sum.Sim.Stats.p95;
  Alcotest.(check (float 0.0)) "p999" 999.0 sum.Sim.Stats.p999

let test_stats_merge () =
  let a = Sim.Stats.of_list [ 1.0; 3.0; 5.0 ] in
  let b = Sim.Stats.of_list [ 2.0; 4.0 ] in
  let m = Sim.Stats.summarize (Sim.Stats.merge a b) in
  Alcotest.(check int) "merged count" 5 m.Sim.Stats.count;
  Alcotest.(check (float 1e-9)) "merged mean" 3.0 m.Sim.Stats.mean;
  Alcotest.(check (float 0.0)) "merged p50" 3.0 m.Sim.Stats.p50;
  Alcotest.(check (float 0.0)) "merged max" 5.0 m.Sim.Stats.max;
  (* inputs are untouched *)
  Alcotest.(check int) "a unchanged" 3
    (Sim.Stats.summarize a).Sim.Stats.count;
  Alcotest.(check int) "b unchanged" 2
    (Sim.Stats.summarize b).Sim.Stats.count

let test_stats_merge_weighted_mean () =
  (* the merged mean is the count-weighted mean of the parts, not the
     mean of the two means — unequal sample counts expose the
     difference *)
  let a = Sim.Stats.of_list [ 10.0 ] in
  let b = Sim.Stats.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 ] in
  let m = Sim.Stats.summarize (Sim.Stats.merge a b) in
  let sa = Sim.Stats.summarize a and sb = Sim.Stats.summarize b in
  let weighted =
    ((sa.Sim.Stats.mean *. float_of_int sa.Sim.Stats.count)
    +. (sb.Sim.Stats.mean *. float_of_int sb.Sim.Stats.count))
    /. float_of_int (sa.Sim.Stats.count + sb.Sim.Stats.count)
  in
  Alcotest.(check (float 1e-9)) "count-weighted mean" weighted m.Sim.Stats.mean;
  Alcotest.(check bool) "differs from mean-of-means" true
    (Float.abs (m.Sim.Stats.mean -. ((sa.Sim.Stats.mean +. sb.Sim.Stats.mean) /. 2.0))
    > 0.1)

let prop_stats_merge_order_independent =
  QCheck.Test.make ~count:100 ~name:"Stats.merge is order-independent"
    QCheck.(
      pair
        (list (float_bound_exclusive 1000.0))
        (list (float_bound_exclusive 1000.0)))
    (fun (xs, ys) ->
      let s1 =
        Sim.Stats.summarize
          (Sim.Stats.merge (Sim.Stats.of_list xs) (Sim.Stats.of_list ys))
      in
      let s2 =
        Sim.Stats.summarize
          (Sim.Stats.merge (Sim.Stats.of_list ys) (Sim.Stats.of_list xs))
      in
      s1.Sim.Stats.count = s2.Sim.Stats.count
      && (s1.Sim.Stats.count = 0
         || Float.abs (s1.Sim.Stats.mean -. s2.Sim.Stats.mean) <= 1e-9
            && s1.Sim.Stats.p50 = s2.Sim.Stats.p50
            && s1.Sim.Stats.p95 = s2.Sim.Stats.p95
            && s1.Sim.Stats.p999 = s2.Sim.Stats.p999
            && s1.Sim.Stats.max = s2.Sim.Stats.max))

(* The summary against a reference built on [Array.sort Float.compare]
   and a left fold: bit-identical fields.  Samples are drawn from a
   small set, so ties are common. *)
let prop_stats_summary_matches_sort =
  QCheck.Test.make ~count:200
    ~name:"Stats.summarize equals an Array.sort reference, ties included"
    QCheck.(list (map (fun i -> float_of_int i /. 4.0) (int_bound 40)))
    (fun xs ->
      let s = Sim.Stats.summarize (Sim.Stats.of_list xs) in
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank p =
        if p >= 1.0 then a.(n - 1)
        else
          let r = int_of_float (ceil ((p *. float_of_int n) -. 1e-9)) in
          a.(max 0 (min (n - 1) (r - 1)))
      in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      s.Sim.Stats.count = n
      && (n = 0
         || same s.Sim.Stats.mean
              (Array.fold_left ( +. ) 0.0 a /. float_of_int n)
            && same s.Sim.Stats.p50 (rank 0.50)
            && same s.Sim.Stats.p90 (rank 0.90)
            && same s.Sim.Stats.p95 (rank 0.95)
            && same s.Sim.Stats.p99 (rank 0.99)
            && same s.Sim.Stats.p999 (rank 0.999)
            && same s.Sim.Stats.max a.(n - 1)))

(* The merge sort against the stdlib, n from 0 to 5,000 (short arrays
   half the time, so every run and merge boundary is crossed), with
   nan, both zeros, both infinities and duplicates: equal under
   [Float.compare] to [Array.sort Float.compare] at every index, and
   bit for bit what the stable [Array.stable_sort] gives, which fixes
   where each zero lands. *)
let prop_stats_sort_differential =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ nan; 0.0; -0.0; infinity; neg_infinity ]);
          (3, map (fun i -> float_of_int i /. 4.0) (int_range (-20) 20));
          (3, float);
        ])
  in
  let samples =
    QCheck.Gen.(
      frequency [ (1, int_bound 40); (1, int_bound 5000) ] >>= fun n ->
      array_size (return n) sample)
  in
  QCheck.Test.make ~count:200
    ~name:"Stats.sorted equals Array.sort Float.compare, nan and zeros"
    QCheck.(make ~print:Print.(array float) samples)
    (fun xs ->
      let got = Sim.Stats.sorted (Sim.Stats.of_list (Array.to_list xs)) in
      let by_sort = Array.copy xs and by_stable = Array.copy xs in
      Array.sort Float.compare by_sort;
      Array.stable_sort Float.compare by_stable;
      let bits = Int64.bits_of_float in
      Array.length got = Array.length xs
      && Array.for_all2 (fun x y -> Float.compare x y = 0) got by_sort
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) got by_stable)

(* Summarizing reads the samples unboxed: the sorted copy and the merge
   sort's scratch are major-heap blocks, and sorting and the mean
   allocate nothing else.  A
   polymorphic [Array.sort] boxed every sample it compared (about
   900,000 minor words here). *)
let test_stats_summarize_no_boxing () =
  let s = Sim.Stats.create () in
  let rng = Qc_util.Prng.create 3 in
  for _ = 1 to 10_000 do
    Sim.Stats.add s (Float.round (100.0 *. Qc_util.Prng.float rng))
  done;
  let w0 = Gc.minor_words () in
  let sum = Sim.Stats.summarize s in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "count" 10_000 sum.Sim.Stats.count;
  Alcotest.(check bool)
    (Fmt.str "%.0f minor words for 10,000 samples" words)
    true (words < 1000.0)

(* ---------- drop-reason accounting ---------- *)

let test_drop_reasons () =
  let sim, net = mk_net () in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> ());
  (* sender down *)
  Sim.Net.crash net "a";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Net.recover net "a";
  (* link cut *)
  Sim.Net.cut_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Net.heal_link net "a" "b";
  (* dest down at delivery time *)
  Sim.Net.crash net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "sent" 3 c.Sim.Net.sent;
  Alcotest.(check int) "delivered" 0 c.Sim.Net.delivered;
  Alcotest.(check int) "sender_down" 1 c.Sim.Net.drop_sender_down;
  Alcotest.(check int) "link_cut" 1 c.Sim.Net.drop_link_cut;
  Alcotest.(check int) "dest_down" 1 c.Sim.Net.drop_dest_down;
  Alcotest.(check int) "loss" 0 c.Sim.Net.drop_loss;
  Alcotest.(check int) "total is the sum" c.Sim.Net.dropped
    (c.Sim.Net.drop_sender_down + c.Sim.Net.drop_dest_down
   + c.Sim.Net.drop_link_cut + c.Sim.Net.drop_loss)

let test_drop_loss_counted () =
  let sim, net = mk_net ~loss:1.0 () in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> ());
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "loss drop" 1 c.Sim.Net.drop_loss;
  Alcotest.(check int) "total" 1 c.Sim.Net.dropped

(* ---------- node records: semantics pinned across the rewrite ---------- *)

let test_net_late_register () =
  let sim, net = mk_net () in
  let got = ref [] in
  Sim.Net.send net ~src:"a" ~dst:"b" 7;
  Sim.Net.register net ~node:"b" (fun ~src msg -> got := (src, msg) :: !got);
  Sim.Core.run sim;
  Alcotest.(check (list (pair string int))) "delivered" [ ("a", 7) ] !got

let test_net_undeclared_node () =
  let sim, net = mk_net () in
  let got = ref 0 and at_b = ref 0 in
  Sim.Net.register net ~node:"z" (fun ~src:_ _ -> incr got);
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr at_b);
  Alcotest.(check bool) "undeclared is down" false (Sim.Net.is_up net "z");
  Alcotest.(check bool) "unknown is down" false (Sim.Net.is_up net "nowhere");
  Sim.Net.send net ~src:"a" ~dst:"z" 1;
  Sim.Net.send net ~src:"a" ~dst:"nowhere" 2;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "no delivery" 0 !got;
  Alcotest.(check int) "sent counted" 2 c.Sim.Net.sent;
  Alcotest.(check int) "dest_down drops" 2 c.Sim.Net.drop_dest_down;
  Sim.Net.recover net "z";
  Alcotest.(check bool) "recovered" true (Sim.Net.is_up net "z");
  Sim.Net.send net ~src:"a" ~dst:"z" 3;
  Sim.Net.send net ~src:"z" ~dst:"b" 4;
  Sim.Core.run sim;
  Alcotest.(check int) "delivered after recover" 1 !got;
  Alcotest.(check int) "recovered node sends" 1 !at_b;
  Sim.Net.crash net "z";
  Alcotest.(check bool) "crashed" false (Sim.Net.is_up net "z");
  Sim.Net.send net ~src:"a" ~dst:"z" 5;
  Sim.Net.send net ~src:"z" ~dst:"a" 6;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "no delivery after crash" 1 !got;
  Alcotest.(check int) "dest_down" 3 c.Sim.Net.drop_dest_down;
  Alcotest.(check int) "sender_down" 1 c.Sim.Net.drop_sender_down

(* Sends at 0, 10, 20, 30, 40; a cut at 5 healed at 15, a filter at 25
   cleared at 35: exactly the sends at 10 and 30 are lost. *)
let test_net_faults_mid_run () =
  let sim, net = mk_net () in
  let got = ref [] in
  Sim.Net.register net ~node:"b" (fun ~src:_ msg -> got := msg :: !got);
  let at time f = Sim.Core.schedule sim ~delay:time f in
  List.iter
    (fun i ->
      at (float_of_int (10 * i)) (fun () -> Sim.Net.send net ~src:"a" ~dst:"b" i))
    [ 0; 1; 2; 3; 4 ];
  at 5.0 (fun () -> Sim.Net.cut_link net "a" "b");
  at 15.0 (fun () -> Sim.Net.heal_all_links net);
  at 25.0 (fun () -> Sim.Net.set_link_filter net ~src:"a" ~dst:"b" Sim.Net.Drop_all);
  at 35.0 (fun () -> Sim.Net.clear_link_filters net);
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check (list int)) "delivered" [ 0; 2; 4 ] (List.rev !got);
  Alcotest.(check int) "link_cut" 1 c.Sim.Net.drop_link_cut;
  Alcotest.(check int) "filtered" 1 c.Sim.Net.drop_filtered;
  Alcotest.(check bool) "no cut left" false (Sim.Net.link_cut net "a" "b");
  Alcotest.(check int) "no filter left" 0
    (List.length (Sim.Net.filtered_links net))

let test_net_filtered_links_sorted () =
  let _, net = mk_net () in
  List.iter
    (fun (src, dst) -> Sim.Net.set_link_filter net ~src ~dst (Sim.Net.Drop_first 2))
    [ ("b", "a"); ("a", "c"); ("a", "b"); ("c", "a"); ("b", "c") ];
  Sim.Net.clear_link_filter net ~src:"c" ~dst:"a";
  Alcotest.(check (list (pair string string)))
    "sorted by link"
    [ ("a", "b"); ("a", "c"); ("b", "a"); ("b", "c") ]
    (List.map (fun (link, _, _) -> link) (Sim.Net.filtered_links net))

(* ---------- node ids ---------- *)

let test_net_ids () =
  let _, net = mk_net () in
  Alcotest.(check (list int)) "declared names take 0 .. n-1" [ 0; 1 ]
    [ Sim.Net.id net "a"; Sim.Net.id net "b" ];
  Alcotest.(check int) "stable" 1 (Sim.Net.id net "b");
  Alcotest.(check (list string)) "name inverts id" [ "a"; "b" ]
    [ Sim.Net.name net 0; Sim.Net.name net 1 ];
  let z = Sim.Net.id net "z" in
  Alcotest.(check int) "an undeclared name gets the next id" 2 z;
  Alcotest.(check string) "and keeps its name" "z" (Sim.Net.name net z);
  Alcotest.(check bool) "undeclared is down" false (Sim.Net.is_up net "z");
  Alcotest.check_raises "an id no node has"
    (Invalid_argument "Net: no node with id 3") (fun () ->
      ignore (Sim.Net.name net 3 : string))

let test_net_id_undeclared_dest_down () =
  let sim, net = mk_net () in
  let got = ref 0 in
  let a = Sim.Net.id net "a" and z = Sim.Net.id net "z" in
  Sim.Net.register_id net ~node:z (fun ~src:_ _ -> incr got);
  Sim.Net.send_id net ~src:a ~dst:z 1;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "a dest_down drop" 1 c.Sim.Net.drop_dest_down;
  Sim.Net.recover net "z";
  Sim.Net.send_id net ~src:a ~dst:z 2;
  Sim.Core.run sim;
  Alcotest.(check int) "delivered once recovered" 1 !got

(* One random fault-and-send program, run twice under one seed: every
   send by name, then each send by name or by id as the program says.
   The handler log (time, src, dst, msg), the counters and the trace
   (whose drop instants carry the reasons) must agree exactly. *)
type net_op =
  | Send of int * int * bool  (** src, dst, by id *)
  | Crash of int
  | Recover of int
  | Cut of int * int
  | Heal of int * int
  | Filter of int * int * Sim.Net.drop_spec
  | Unfilter of int * int

let op_nodes = [| "a"; "b"; "c"; "d"; "z" |]

let gen_net_op =
  let open QCheck.Gen in
  let node = int_bound 4 in
  frequency
    [
      (8, map3 (fun s d by_id -> Send (s, d, by_id)) node node bool);
      (1, map (fun n -> Crash n) node);
      (2, map (fun n -> Recover n) node);
      (1, map2 (fun a b -> Cut (a, b)) node node);
      (1, map2 (fun a b -> Heal (a, b)) node node);
      ( 1,
        map3
          (fun a b spec -> Filter (a, b, spec))
          node node
          (oneof
             [
               return Sim.Net.Drop_all;
               map (fun n -> Sim.Net.Drop_first n) (int_bound 3);
               map (fun p -> Sim.Net.Drop_prob p) (float_bound_inclusive 1.0);
             ]) );
      (1, map2 (fun a b -> Unfilter (a, b)) node node);
    ]

let run_net_program ~mixed prog =
  let sim = Sim.Core.create ~seed:17 in
  let tr = Obs.Trace.create ~capacity:65536 ~enabled:true () in
  Sim.Core.attach_tracer sim tr;
  let net =
    Sim.Net.create ~sim ~nodes:[ "a"; "b"; "c"; "d" ]
      ~latency:(Sim.Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ~loss:0.2 ()
  in
  let log = ref [] in
  Array.iter
    (fun n ->
      if mixed then
        Sim.Net.register_id net ~node:(Sim.Net.id net n) (fun ~src msg ->
            log := (Sim.Core.now sim, Sim.Net.name net src, n, msg) :: !log)
      else
        Sim.Net.register net ~node:n (fun ~src msg ->
            log := (Sim.Core.now sim, src, n, msg) :: !log))
    op_nodes;
  List.iteri
    (fun i (at, op) ->
      Sim.Core.schedule sim ~delay:at (fun () ->
          let n = Array.get op_nodes in
          match op with
          | Send (s, d, by_id) ->
              if mixed && by_id then
                Sim.Net.send_id net ~src:(Sim.Net.id net (n s))
                  ~dst:(Sim.Net.id net (n d)) i
              else Sim.Net.send net ~src:(n s) ~dst:(n d) i
          | Crash x -> Sim.Net.crash net (n x)
          | Recover x -> Sim.Net.recover net (n x)
          | Cut (x, y) -> Sim.Net.cut_link net (n x) (n y)
          | Heal (x, y) -> Sim.Net.heal_link net (n x) (n y)
          | Filter (x, y, spec) ->
              Sim.Net.set_link_filter net ~src:(n x) ~dst:(n y) spec
          | Unfilter (x, y) -> Sim.Net.clear_link_filter net ~src:(n x) ~dst:(n y)))
    prog;
  Sim.Core.run sim;
  (List.rev !log, Sim.Net.counters net, Obs.Export.jsonl tr)

let prop_net_by_name_equals_by_id =
  QCheck.Test.make ~count:150
    ~name:"Net: sends by name and by id deliver and drop alike"
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 80)
            (pair (map float_of_int (int_bound 40)) gen_net_op)))
    (fun prog ->
      let log_a, counters_a, trace_a = run_net_program ~mixed:false prog in
      let log_b, counters_b, trace_b = run_net_program ~mixed:true prog in
      log_a = log_b && counters_a = counters_b && String.equal trace_a trace_b)

(* One id-addressed send and its delivery, tracing off, measured over
   1,000 sends and one drain: 11 words under the release profile — the
   delivery closure (header, code pointer, arity word, and the network,
   the destination's record, the payload count, the boxed delay, the
   sender's id and the message) and the delay's own box — and 19 under
   the dev profile the suite builds with, where nothing is inlined
   across modules and the latency draw boxes its intermediates. *)
let test_net_send_id_words () =
  let sim, net = mk_net () in
  let a = Sim.Net.id net "a" and b = Sim.Net.id net "b" in
  let got = ref 0 in
  Sim.Net.register_id net ~node:b (fun ~src:_ _ -> incr got);
  (* grow the event heap to its working size first *)
  for _ = 1 to 2000 do
    Sim.Net.send_id net ~src:a ~dst:b 0
  done;
  Sim.Core.run sim;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Sim.Net.send_id net ~src:a ~dst:b 0
  done;
  Sim.Core.run sim;
  let per_send = (Gc.minor_words () -. w0) /. 1000.0 in
  Alcotest.(check int) "delivered" 3000 !got;
  Alcotest.(check bool)
    (Fmt.str "%.2f words per send and delivery" per_send)
    true (per_send < 19.5)

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "orders by time" `Quick test_heap_ordering;
        Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
        qcheck prop_heap_sorted;
        qcheck prop_heap_model;
        Alcotest.test_case "taken values are released" `Quick
          test_heap_releases_values;
        qcheck prop_heap_cancel_model;
        qcheck prop_heap_model_deep;
        qcheck prop_heap_cancel_model_deep;
        Alcotest.test_case "stale, repeated and reused-slot handles" `Quick
          test_heap_stale_handles;
        Alcotest.test_case "add, cancel and take allocate nothing" `Quick
          test_heap_no_alloc;
      ] );
    ( "sim.core",
      [
        Alcotest.test_case "time advances with events" `Quick test_sim_time_advances;
        Alcotest.test_case "run until bound" `Quick test_sim_until;
        Alcotest.test_case "NaN delay rejected, infinity allowed" `Quick
          test_sim_nan_delay;
        Alcotest.test_case "timers: cancel, stale and repeated cancel" `Quick
          test_core_timers;
        Alcotest.test_case "background events never keep a run going" `Quick
          test_core_background;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "delivery" `Quick test_net_delivery;
        Alcotest.test_case "crash drops, recover delivers" `Quick
          test_net_crash_drops;
        Alcotest.test_case "dead sender drops" `Quick test_net_dead_sender;
        Alcotest.test_case "link cut and heal" `Quick test_net_link_cut;
        Alcotest.test_case "loss rate" `Quick test_net_loss_rate;
        Alcotest.test_case "determinism" `Quick test_sim_determinism;
        Alcotest.test_case "drop reasons attributed" `Quick test_drop_reasons;
        Alcotest.test_case "loss drops counted" `Quick test_drop_loss_counted;
        Alcotest.test_case "handler registered in flight" `Quick
          test_net_late_register;
        Alcotest.test_case "undeclared node is down until recovered" `Quick
          test_net_undeclared_node;
        Alcotest.test_case "cut and filter installed mid-run" `Quick
          test_net_faults_mid_run;
        Alcotest.test_case "filtered links sorted" `Quick
          test_net_filtered_links_sorted;
        Alcotest.test_case "ids and names round-trip" `Quick test_net_ids;
        Alcotest.test_case "an undeclared id is a down destination" `Quick
          test_net_id_undeclared_dest_down;
        Alcotest.test_case "send by id allocates its closure only" `Quick
          test_net_send_id_words;
        qcheck prop_net_by_name_equals_by_id;
      ] );
    ( "sim.failure",
      [ Alcotest.test_case "availability matches spec" `Quick test_failure_availability ]
    );
    ( "sim.stats",
      [
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "empty summary" `Quick test_stats_empty;
        Alcotest.test_case "nearest-rank pinned values" `Quick
          test_stats_nearest_rank;
        Alcotest.test_case "p95/p999 in summary" `Quick
          test_stats_p95_p999_summary;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "merge mean is count-weighted" `Quick
          test_stats_merge_weighted_mean;
        qcheck prop_stats_merge_order_independent;
        qcheck prop_stats_summary_matches_sort;
        qcheck prop_stats_sort_differential;
        Alcotest.test_case "summarize does not box samples" `Quick
          test_stats_summarize_no_boxing;
      ] );
  ]
