// Fixture: an allow comment with a reason keeps a deliberate direct call.
namespace demo {

void Probe(Cluster* cluster) {
  // farmlint: allow(emit-only): a harness milestone that no protocol step owns
  cluster->NoteMilestone("harness-start");
}

}  // namespace demo
