// wsqcheck-fixture: dest=src/net/bad_submit_drops_callback.cc expect=submit-drops-callback:1
namespace wsq {

class Droppy final : public SearchService {
 public:
  void Submit(SearchRequest request, SearchCallback done) override {
    if (request.key.empty()) {
      // The callback is dropped on this branch: nothing completes the
      // request, and nothing hands `done` off.
      return;
    }
    done(SearchResponse{});
  }
};

}  // namespace wsq
